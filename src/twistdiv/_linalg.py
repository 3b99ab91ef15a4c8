"""Exact linear algebra over the rationals.

Everything here works on plain lists of lists; entries may be ints or
Fractions.  ``_echelon`` eliminates over Python ints: each row is scaled
to coprime integers (rows of ints take that path without building a
Fraction), zero rows and rows that repeat another up to sign are
dropped, and Gauss-Jordan steps are fraction-free (each updated row
divided by its gcd, as in Bareiss, Math. Comp. 22, 1968).  ``rref``
divides the pivots out once at the end; the reduced row echelon form is
unique, so this gives the same Fraction rows as elimination over
Fractions, at a fraction of the cost on the identity-space matrices.
``nullspace`` takes a column map, so a matrix with repeated columns is
passed with each written once; it eliminates only the distinct columns
by content, few over an associative algebra (30 for the 420 monomials of
H at (2,2,1)), and divides by the pivots once per distinct column.
``det`` is fraction-free Bareiss elimination over Python ints.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def clear_denominators(row):
    """(D, D * row): the least common denominator D of the entries and
    the row scaled by it, as ints (D is 1 for a row of ints)."""
    if Fraction not in map(type, row):
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


def _echelon(rows):
    """``rref`` over ints: each row is left scaled by its pivot entry."""
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
    return m, pivots


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns); the
    rows are lists of Fractions, one per pivot."""
    m, pivots = _echelon(rows)
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


def nullspace(rows, columns):
    """Basis of the right nullspace of the matrix whose column j is column
    ``columns[j]`` of ``rows`` (which may be empty), one vector per free
    column; a column index outside ``rows`` raises ValueError.

    The basis is the standard RREF parametrization, with the free
    variable set to 1 and pivot variables solved.  The RREF is unique, so
    the basis does not depend on the order of the rows.  Row operations
    keep equal columns equal and a repeat of an earlier column is never a
    pivot, so only the distinct columns by content are eliminated.
    """
    source = list(zip(*rows))
    distinct, merged, copy_of = {}, {}, []
    for c in columns:
        d = merged.get(c)
        if d is None:
            if c < 0 or rows and c >= len(source):
                raise ValueError(f"column {c} is out of range")
            d = merged[c] = distinct.setdefault(source[c] if rows else (), len(distinct))
        copy_of.append(d)
    echelon, pivots = _echelon(list(zip(*distinct)))
    placed = [copy_of.index(d) for d in pivots]
    pivot_set = set(placed)
    zero, one = Fraction(0), Fraction(1)
    solved = [[Fraction(-row[d], row[p]) if row[d] else zero
               for row, p in zip(echelon, pivots)] for d in range(len(distinct))]
    basis = []
    for free, d in enumerate(copy_of):
        if free in pivot_set:
            continue
        vec = [zero] * len(columns)
        vec[free] = one
        for pc, x in zip(placed, solved[d]):
            vec[pc] = x
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
