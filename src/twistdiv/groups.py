"""Finite grading groups as explicit Cayley tables, plus standard-basis words.

Groups are stored as full multiplication tables on 0-based element indices
with 0 the identity.  Element order along the table follows the word
order of the minimal generating set (non-increasing generator orders), so
index labels line up with the structure-constant arrays used elsewhere.

All supported groups have order <= 8; the order-8 tables are shipped as
data for extensibility even though only orders 1-4 are classified here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

LEFT_STANDARD = "left-standard"
RIGHT_STANDARD = "right-standard"
CONVENTIONS = (LEFT_STANDARD, RIGHT_STANDARD)


class FiniteGroup:
    """Finite group given by a Cayley table.

    cayley[g][h] is the index of the product g*h.  Construction validates
    the full group axioms (identity at 0, two-sided inverses, and
    associativity over all |G|^3 triples).
    """

    def __init__(self, name, cayley, generators, element_labels=None,
                 exponent_ranges=None):
        self.name = name
        self.cayley = tuple(tuple(row) for row in cayley)
        self.order = len(self.cayley)
        self.generators = tuple(generators)
        self.element_labels = tuple(
            element_labels if element_labels is not None
            else (str(i) for i in range(self.order))
        )
        self._validate()
        orders = [self.element_order(g) for g in self.generators]
        if any(a < b for a, b in zip(orders, orders[1:])):
            raise ValueError("generator orders must be non-increasing")
        self.exponent_ranges = tuple(
            exponent_ranges if exponent_ranges is not None else orders
        )

    def _validate(self):
        n = self.order
        idx = range(n)
        for row in self.cayley:
            if len(row) != n or any(not 0 <= v < n for v in row):
                raise ValueError("malformed Cayley table")
        for g in idx:
            if self.cayley[0][g] != g or self.cayley[g][0] != g:
                raise ValueError("index 0 is not an identity")
        for g in idx:
            if sorted(self.cayley[g]) != list(idx):
                raise ValueError(f"row {g} is not a permutation")
            if sorted(self.cayley[h][g] for h in idx) != list(idx):
                raise ValueError(f"column {g} is not a permutation")
        for a in idx:
            for b in idx:
                ab = self.cayley[a][b]
                for c in idx:
                    if self.cayley[ab][c] != self.cayley[a][self.cayley[b][c]]:
                        raise ValueError("Cayley table is not associative")

    def mul(self, g, h):
        if not (0 <= g < self.order and 0 <= h < self.order):
            raise IndexError("group element index out of range")
        return self.cayley[g][h]

    def inverse(self, g):
        return self.cayley[g].index(0)

    def element_order(self, g):
        k, x = 1, g
        while x != 0:
            x = self.mul(x, g)
            k += 1
        return k

    def is_abelian(self):
        return all(
            self.cayley[a][b] == self.cayley[b][a]
            for a in range(self.order)
            for b in range(a)
        )

    def power(self, g, k):
        x = 0
        for _ in range(k):
            x = self.mul(x, g)
        return x

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.cayley == other.cayley

    def __hash__(self):
        return hash(self.cayley)

    def __repr__(self):
        return f"FiniteGroup({self.name!r}, order={self.order})"


def multiply(g, h, group):
    """Cayley-table product of two element indices."""
    return group.mul(g, h)


def _tuple_key(t):
    # word order: s < t iff the last nonzero entry of s - t is negative
    return tuple(reversed(t))


def cyclic(n, name=None):
    cayley = [[(i + j) % n for j in range(n)] for i in range(n)]
    gens = [1] if n > 1 else []
    return FiniteGroup(name or f"Z{n}", cayley, gens)


def _abelian_product(factor_orders, name):
    """Direct product of cyclic groups; generator i has order factor_orders[i].

    Elements are exponent tuples (s1, ..., sm) ordered by the word rule,
    matching the standard-basis listing.
    """
    ranges = [range(o) for o in factor_orders]
    elements = sorted(itertools.product(*ranges), key=_tuple_key)
    index = {e: i for i, e in enumerate(elements)}
    cayley = [
        [
            index[tuple((a + b) % o for a, b, o in zip(x, y, factor_orders))]
            for y in elements
        ]
        for x in elements
    ]
    gens = []
    for i in range(len(factor_orders)):
        e = tuple(1 if j == i else 0 for j in range(len(factor_orders)))
        gens.append(index[e])
    labels = ["(" + ",".join(map(str, e)) + ")" for e in elements]
    return FiniteGroup(name, cayley, gens, labels)


def klein():
    return _abelian_product((2, 2), "Z2xZ2")


def z2_cubed():
    return _abelian_product((2, 2, 2), "Z2xZ2xZ2")


def z4_times_z2():
    return _abelian_product((4, 2), "Z2xZ4")


def _words_x_r(name, twist, labels):
    """Words x^b r^a (a < 4, b < 2) with x r x^-1 = r^-1 and x^2 = r^(2 twist).

    Since r^a x^d = x^d r^((-1)^d a), the product of x^b r^a and x^d r^c
    is x^(b+d) r^(c + (-1)^d a), with x^2 folded into r^(2 twist).  The
    element x^b r^a has index 4b + a; r and x are the generators.
    """

    def mul(a, b, c, d):
        e = c + (-a if d else a) + (2 * twist if b and d else 0)
        return 4 * ((b + d) % 2) + e % 4

    words = [(a, b) for b in range(2) for a in range(4)]
    cayley = [[mul(*x, *y) for y in words] for x in words]
    return FiniteGroup(name, cayley, [1, 4], labels, exponent_ranges=(4, 2))


def dihedral4():
    """Dihedral group of order 8: words s^b r^a with r^4 = s^2 = e, s r = r^-1 s."""
    labels = [f"s^{b}r^{a}" for b in range(2) for a in range(4)]
    return _words_x_r("D4", 0, labels)


def quaternion8():
    """Quaternion group on words j^b i^a, a < 4, b < 2: j i j^-1 = i^-1 and
    j^2 = i^2 = -1."""
    return _words_x_r("Q8", 1, ["1", "i", "-1", "-i", "j", "-k", "-j", "k"])


_FACTORIES = {
    "Z1": lambda: cyclic(1),
    "Z2": lambda: cyclic(2),
    "Z3": lambda: cyclic(3),
    "Z4": lambda: cyclic(4),
    "Z6": lambda: cyclic(6),
    "Z8": lambda: cyclic(8),
    "Z2xZ2": klein,
    "Z2xZ2xZ2": z2_cubed,
    "Z2xZ4": z4_times_z2,
    "D4": dihedral4,
    "Q8": quaternion8,
}

GROUP_NAMES = ("Z2", "Z4", "Z2xZ2", "Z2xZ2xZ2", "Z2xZ4", "Z8", "D4", "Q8")

_CACHE = {}


def group_by_name(name):
    try:
        factory = _FACTORIES[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise ValueError(f"unsupported group name {name!r}") from None
    if name not in _CACHE:
        _CACHE[name] = factory()
    return _CACHE[name]


@dataclass(frozen=True)
class BasisWord:
    """Exponent word over the group's generators, under one convention.

    Left-standard words read g_m^{s_m} * ( ... * (g_2^{s_2} * g_1^{s_1}))
    with powers fed from the left; right-standard words mirror this.  The
    exponents tuple is (s_1, ..., s_m).
    """

    exponents: tuple
    convention: str

    def is_identity(self):
        return not any(self.exponents)


def standard_basis_words(group, convention):
    """The |G| standard-basis words in canonical order (identity first)."""
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown basis convention {convention!r}")
    ranges = [range(o) for o in group.exponent_ranges]
    tuples = sorted(itertools.product(*ranges), key=_tuple_key)
    words = [BasisWord(t, convention) for t in tuples]
    if len({word_element(group, w) for w in words}) != group.order:
        raise ValueError("standard words do not enumerate the group")
    return words


def word_element(group, word):
    """Group element reached by a standard-basis word.

    Inside the group the bracketing is immaterial, so both conventions
    reduce to an ordered product of generator powers: generators are
    multiplied from g_m down to g_1 for left-standard words and from g_1
    up to g_m for right-standard words.
    """
    m = len(group.generators)
    order = range(m - 1, -1, -1) if word.convention == LEFT_STANDARD else range(m)
    x = 0
    for i in order:
        x = group.mul(x, group.power(group.generators[i], word.exponents[i]))
    return x
