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
algebra are few (30 of the 420 for H at (2,2,1)).  ``det`` is
fraction-free Bareiss elimination over Python ints, the exact numeric
determinant.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row):
    """(D, D * row): the least common denominator D of the entries and
    the row scaled by it, as ints (D is 1 for a row of ints)."""
    if all(type(x) is int for x in row):
        return 1, row
    den = lcm(*(x.denominator for x in row))
    return den, [x.numerator * (den // x.denominator) for x in row]


def _primitive_rows(rows):
    """The distinct nonzero rows up to scale and sign, each as coprime
    ints with a positive leading entry, in first-seen order."""
    seen = set()
    out = []
    for row in rows:
        ints = clear_denominators(row)[1]
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


def det(rows):
    """Exact determinant of a square matrix of ints or Fractions.

    Each row is scaled to ints by ``clear_denominators`` and the scales
    are divided back out at the end.  Fraction-free Bareiss elimination
    (Math. Comp. 22, 1968) then keeps every entry an int: step k replaces
    each entry below and right of the pivot p by (p x - f y) / p', an
    exact division by the previous pivot p', and the last entry is the
    determinant.  A zero pivot is swapped with the first row below that
    has a nonzero entry in its column, negating the result; a column
    with none is singular and gives 0.  The result is an int when no row
    needed scaling, otherwise a Fraction.
    """
    n = len(rows)
    if n == 0:
        raise ValueError("empty matrix")
    if any(len(row) != n for row in rows):
        raise ValueError("matrix is not square")
    scale, m = 1, list(rows)
    for i, row in enumerate(rows):
        den, m[i] = clear_denominators(row)
        scale *= den
    sign, prev = 1, 1
    for k in range(n - 1):
        # m[k:] holds the trailing n - k columns of the rows left
        top = m[k]
        if not top[0]:
            swap = next((i for i in range(k + 1, n) if m[i][0]), None)
            if swap is None:
                return 0
            m[k], m[swap], top = m[swap], top, m[swap]
            sign = -sign
        p, rest = top[0], top[1:]
        for i in range(k + 1, n):
            row = m[i]
            f = row[0]
            # f = 0 leaves p x / p', a plain copy when p = p'
            if f:
                m[i] = [(p * x - f * y) // prev for x, y in zip(row[1:], rest)]
            elif p == prev:
                m[i] = row[1:]
            else:
                m[i] = [p * x // prev for x in row[1:]]
        prev = p
    d = sign * m[n - 1][0]
    return d if scale == 1 else Fraction(d, scale)


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
