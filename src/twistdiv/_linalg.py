"""Exact linear algebra over the rationals (dense, Fraction-based).

Everything here works on plain lists of lists; entries may be ints or
Fractions and are promoted as needed.  The matrices in this project have
at most a few hundred rows and columns (identity spaces reach 420
columns); plain Gaussian elimination over Fractions with exact pivoting
keeps every result exact and deterministic.
"""

from __future__ import annotations

from fractions import Fraction


def _as_fraction_rows(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.  Returns (new_rows, pivot_columns)."""
    m = _as_fraction_rows(rows)
    if not m:
        return [], []
    ncols = len(m[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = Fraction(1) / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c] != 0:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == len(m):
            break
    return m[:r], pivots


def rank(rows):
    return len(rref(rows)[0])


def nullspace(rows, ncols=None):
    """Basis of the right nullspace of the matrix, one vector per free column.

    The basis is the standard RREF parametrization: deterministic given the
    row order, with the free variable set to 1 and pivot variables solved.
    """
    if ncols is None:
        if not rows:
            raise ValueError("ncols required for an empty matrix")
        ncols = len(rows[0])
    reduced, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, pc in enumerate(pivots):
            vec[pc] = -reduced[r][free]
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


def det(rows):
    """Exact determinant by Fraction Gaussian elimination on a copy."""
    n = len(rows)
    m = _as_fraction_rows(rows)
    sign = 1
    result = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if m[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            sign = -sign
        result *= m[c][c]
        inv = Fraction(1) / m[c][c]
        for i in range(c + 1, n):
            if m[i][c] != 0:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[c])]
    return sign * result


def in_rowspace(rows, vector):
    """True if vector lies in the row space of rows."""
    if all(v == 0 for v in vector):
        return True
    base = rank(rows) if rows else 0
    return rank(list(rows) + [list(vector)]) == base
