"""Sign-valued cohomological functions attached to a structure constant.

For a unital structure constant C these are:

* the associativity defect r(a,b,c) = C(b,c) C(ab,c)^-1 C(a,bc) C(a,b)^-1,
  a 3-coboundary of C, with v_a (v_b v_c) = r(a,b,c) (v_a v_b) v_c;
* the commutativity defect q(a,b) = C(a,b) C(b,a)^-1 for abelian G;
* the 2-cocycle / 2-coboundary / separability predicates on q, with an
  exhaustive search for a potential kappa with q = delta kappa.

Closed forms for the quaternion and tesseranion algebras are evaluated as
integer parities, exp(i*pi*k) = (-1)^k, never with floating complex
numbers; the half/quarter exponent divisions are checked to be integral.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from .algebra import _narrow


def _exact_div(a, b):
    return _narrow(Fraction(a) / Fraction(b))


class SignTable:
    """Sign-valued function on G^arity, stored as a nested tuple table."""

    def __init__(self, table, arity):
        self.table = table
        self.arity = arity

    def __call__(self, *args):
        if len(args) != self.arity:
            raise TypeError(f"expected {self.arity} arguments")
        t = self.table
        for a in args:
            t = t[a]
        return t

    def __eq__(self, other):
        return isinstance(other, SignTable) and self.table == other.table

    def __repr__(self):
        return f"SignTable(arity={self.arity}, {self.table})"


def r_function(constant):
    """3-coboundary of C measuring the associativity defect."""
    G = constant.group
    n = G.order
    table = tuple(
        tuple(
            tuple(
                _exact_div(
                    constant(b, c) * constant(a, G.mul(b, c)),
                    constant(G.mul(a, b), c) * constant(a, b),
                )
                for c in range(n)
            )
            for b in range(n)
        )
        for a in range(n)
    )
    return SignTable(table, 3)


def q_function(constant):
    """Commutativity defect q(a,b) = C(a,b)/C(b,a); abelian groups only."""
    G = constant.group
    if not G.is_abelian():
        raise ValueError("q is defined only for abelian grading groups")
    n = G.order
    table = tuple(
        tuple(_exact_div(constant(a, b), constant(b, a)) for b in range(n))
        for a in range(n)
    )
    return SignTable(table, 2)


def is_2cocycle(q, group):
    """(delta q)(g,h,t) = q(h,t) q(gh,t)^-1 q(g,ht) q(g,h)^-1 = 1 on G^3."""
    n = group.order
    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            for t in range(n):
                ht = group.mul(h, t)
                if q(h, t) * q(g, ht) != q(gh, t) * q(g, h):
                    return False
    return True


def find_coboundary_kappa(q, group):
    """Search kappa: G -> {1,-1} with q(a,b) = kappa(b) kappa(ab)^-1 kappa(a).

    kappa(e) = 1 is forced (take a = b = e), so the search space is the
    2^(|G|-1) sign assignments on the non-identity elements.
    """
    n = group.order
    for signs in itertools.product((1, -1), repeat=n - 1):
        kappa = SignTable((1,) + signs, 1)
        if is_coboundary_witness(q, group, kappa):
            return kappa
    return None


def is_coboundary_witness(q, group, kappa):
    """Check q(a,b) = kappa(b) kappa(ab)^-1 kappa(a) for a given kappa.

    Witnesses are only unique up to a sign character of the group, so a
    closed-form kappa may legitimately differ from the one found by the
    exhaustive search.
    """
    n = group.order
    return all(
        q(a, b) == kappa(b) * kappa(a) * kappa(group.mul(a, b))
        for a in range(n)
        for b in range(n)
    )


def is_separable(q, group):
    return separability_violation(q, group) is None


def separability_violation(q, group):
    """First triple (g,h,t) with q(h,t) q(gh,t)^-1 q(g,t) != 1, else None."""
    n = group.order
    for g in range(n):
        for h in range(n):
            gh = group.mul(g, h)
            for t in range(n):
                if q(h, t) * q(g, t) != q(gh, t):
                    return (g, h, t)
    return None


# -- exact parity evaluation of the exponential closed forms -------------


def _parity_sign(numerator, denominator):
    """(-1)^(numerator/denominator) with an exactness guard."""
    if numerator % denominator != 0:
        raise ArithmeticError(
            f"closed-form exponent {numerator}/{denominator} is not an integer"
        )
    return -1 if (numerator // denominator) % 2 else 1


def c_quat_closed(a, b):
    """Quaternion structure constant, exp(-i pi [n n' + m(n'+m')]) as a parity."""
    (n, m), (np_, mp) = a, b
    return _parity_sign(n * np_ + m * (np_ + mp), 1)


def q_quat_closed(a, b):
    (n, m), (np_, mp) = a, b
    return _parity_sign(n * mp - np_ * m, 1)


def kappa_quat_closed(a):
    n, m = a
    return _parity_sign(-n * m, 1)


def c_tes_closed(n, m):
    """Tesseranion structure constant as a parity of a quartic expression."""
    expr = (-2 * n * n + 3 * n - 2 * m * m + m - 3 * n * m + 3) * n * m
    return _parity_sign(expr, 4)


def q_tes_closed(n, m):
    return _parity_sign(n * n * m - n * m * m, 2)


def kappa_tes_closed(n):
    return _parity_sign(n**3 + n**2, 2)


def r_tes_closed(n, m, h):
    return _parity_sign(n * m * h, 1)


def klein_pairs(group):
    """Index -> (n, m) exponent pair for the Klein group's table order."""
    if group.name != "Z2xZ2":
        raise ValueError(f"Klein pairs are defined for Z2xZ2, not {group.name}")
    return {0: (0, 0), 1: (1, 0), 2: (0, 1), 3: (1, 1)}
