"""Exact linear algebra over the rationals.

Everything here works on plain lists of lists; entries may be ints or
Fractions.  ``rref`` eliminates over Python ints: each row is scaled to
coprime integers (rows of ints take that path without building a
Fraction), zero rows and rows that repeat another up to sign are
dropped, Gauss-Jordan steps are fraction-free (each updated row divided
by its gcd, as in Bareiss, Math. Comp. 22, 1968), and the pivots are
divided out once at the end.  The reduced row echelon form of a matrix
is unique, so this gives the same Fraction rows as elimination over
Fractions, at a fraction of the cost on the identity-space matrices:
small integers, up to 420 columns, most rows repeated.  ``nullspace``
eliminates only a matrix's distinct columns, which over an associative
algebra are few (30 of the 420 for H at (2,2,1)).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def _primitive_rows(rows):
    """The distinct nonzero rows up to scale and sign, each as coprime
    ints with a positive leading entry, in first-seen order."""
    seen = set()
    out = []
    for row in rows:
        if all(type(x) is int for x in row):
            ints = row
        else:
            fracs = [Fraction(x) for x in row]
            den = lcm(*(x.denominator for x in fracs))
            ints = [x.numerator * (den // x.denominator) for x in fracs]
        g = gcd(*ints)
        if g == 0:
            continue
        if next(x for x in ints if x) < 0:
            g = -g
        key = tuple(x // g for x in ints)
        if key not in seen:
            seen.add(key)
            out.append(list(key))
    return out


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns); the
    rows are lists of Fractions, one per pivot."""
    m = _primitive_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        prow = m[r]
        p = prow[c]
        kept = []
        for i, row in enumerate(m):
            f = row[c]
            if i != r and f:
                g = gcd(p, f)
                a, b = p // g, f // g
                row = [a * x - b * y for x, y in zip(row, prow)]
                g = gcd(*row)
                if g == 0:
                    continue
                if g != 1:
                    row = [x // g for x in row]
            kept.append(row)
        m = kept
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return [
        [Fraction(x, row[c]) for x in row] for row, c in zip(m, pivots)
    ], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix, one vector per free column.

    The matrix has ``ncols`` columns and may have no rows.  The basis is
    the standard RREF parametrization, with the free variable set to 1
    and pivot variables solved.  The RREF is unique, so the basis does
    not depend on the order of the rows.  Row operations keep equal
    columns equal, and a repeat of an earlier column is never a pivot, so
    only the distinct columns are eliminated: each column's entries are
    read off its first copy.
    """
    distinct, copy_of, first = {}, [], []
    for j, col in enumerate(zip(*rows) if rows else [()] * ncols):
        d = distinct.setdefault(col, len(distinct))
        if d == len(first):
            first.append(j)
        copy_of.append(d)
    reduced, pivots = rref(list(zip(*distinct)))
    negated = [[-x for x in row] for row in reduced]
    pivots = [first[d] for d in pivots]
    pivot_set = set(pivots)
    zero, one = Fraction(0), Fraction(1)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [zero] * ncols
        vec[free] = one
        d = copy_of[free]
        for row, pc in zip(negated, pivots):
            vec[pc] = row[d]
        basis.append(vec)
    return basis


def solve(rows, rhs):
    """One exact solution of A x = b, or None if inconsistent.

    Free variables (if any) are set to zero.
    """
    if not rows:
        return None
    ncols = len(rows[0])
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    reduced, pivots = rref(aug)
    for row in reduced:
        if all(v == 0 for v in row[:ncols]) and row[ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for r, pc in enumerate(pivots):
        if pc == ncols:
            return None
        x[pc] = reduced[r][ncols]
    return x


def in_rowspace(rows, vector):
    """True if vector lies in the row space of rows."""
    if all(v == 0 for v in vector):
        return True
    base = rank(rows) if rows else 0
    return rank(list(rows) + [list(vector)]) == base
