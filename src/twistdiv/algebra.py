"""Twisted group algebras over exact scalar rings.

A twisted group algebra is determined by a grading group G and a unital
structure constant C: products of basis vectors follow
``v_a * v_b = C(a, b) v_{ab}`` and extend bilinearly.  Elements are
coefficient vectors indexed by group elements; coefficients may be exact
rationals, integers mod an odd prime, or polynomials (for symbolic
verification), since the product formula only needs ring arithmetic.
"""

from __future__ import annotations

from fractions import Fraction

from . import _linalg
from .groups import (
    CONVENTIONS,
    LEFT_STANDARD,
    RIGHT_STANDARD,
    group_by_name,
)
from .poly import MultiPoly, indeterminates


class ModInt:
    """Integer mod an odd prime, with field inverse."""

    __slots__ = ("value", "p")

    def __init__(self, value, p):
        self.value = value % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, ModInt):
            if other.p != self.p:
                raise ValueError("mixed moduli")
            return other.value
        if isinstance(other, int):
            return other % self.p
        return NotImplemented

    def __add__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value + v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value - v, self.p)

    def __rsub__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(v - self.value, self.p)

    def __mul__(self, other):
        v = self._coerce(other)
        if v is NotImplemented:
            return NotImplemented
        return ModInt(self.value * v, self.p)

    __rmul__ = __mul__

    def __neg__(self):
        return ModInt(-self.value, self.p)

    def __pow__(self, k):
        return ModInt(pow(self.value, k, self.p), self.p)

    def inverse(self):
        if self.value == 0:
            raise ZeroDivisionError("0 has no inverse mod p")
        return ModInt(pow(self.value, self.p - 2, self.p), self.p)

    def __eq__(self, other):
        if isinstance(other, ModInt):
            return self.p == other.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.p
        return NotImplemented

    def __hash__(self):
        return hash((self.value, self.p))

    def __repr__(self):
        return f"{self.value} (mod {self.p})"


class Rationals:
    """Exact rational scalars (the ring used for everything real)."""

    name = "rational"

    def coerce(self, x):
        if isinstance(x, (Fraction, int)):
            return Fraction(x)
        if isinstance(x, MultiPoly):
            return x
        raise TypeError(f"cannot coerce {type(x).__name__} into the rationals")

    def __eq__(self, other):
        return isinstance(other, Rationals)

    def __hash__(self):
        return hash("rational")

    def __repr__(self):
        return "Rationals()"


# Miller-Rabin with the first 13 primes as bases decides primality exactly
# below this bound (Sorenson and Webster, Math. Comp. 86, 2017); the first 12
# are exact only below 318665857834031151167461, a strong pseudoprime to them
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Deterministic Miller-Rabin; ValueError at or above ``_MR_BOUND``."""
    if n >= _MR_BOUND:
        raise ValueError(f"modulus {n} is too large to be certified prime")
    if n < 2 or any(n % q == 0 for q in _MR_BASES):
        return n in _MR_BASES
    r = ((n - 1) & (1 - n)).bit_length() - 1  # n - 1 = d 2^r with d odd
    d = (n - 1) >> r
    return all(
        pow(a, d, n) == 1 or any(pow(a, d << i, n) == n - 1 for i in range(r))
        for a in _MR_BASES
    )


class IntegersModP:
    """Scalars in Z_p for an odd prime p."""

    def __init__(self, p):
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"modulus must be an int, not {type(p).__name__}")
        if p == 2 or not _is_prime(p):
            raise ValueError("modulus must be an odd prime")
        self.p = p
        self.name = f"mod-{p}"

    def coerce(self, x):
        if isinstance(x, ModInt):
            if x.p != self.p:
                raise ValueError("mixed moduli")
            return x
        if isinstance(x, int):
            return ModInt(x, self.p)
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise ZeroDivisionError("denominator vanishes mod p")
            return ModInt(x.numerator, self.p) * ModInt(x.denominator, self.p).inverse()
        raise TypeError(f"cannot coerce {type(x).__name__} mod {self.p}")

    def __eq__(self, other):
        return isinstance(other, IntegersModP) and other.p == self.p

    def __hash__(self):
        return hash(("mod", self.p))

    def __repr__(self):
        return f"IntegersModP({self.p})"


RATIONALS = Rationals()


class StructureConstant:
    """Unital structure constant array C(a, b) against a fixed basis order.

    Row label = left factor, column label = right factor, matching the
    table layout used in reports.  Entries must be nonzero scalars and the
    identity row/column must be all ones.
    """

    def __init__(self, group, values, convention=LEFT_STANDARD):
        if convention not in CONVENTIONS:
            raise ValueError(f"unknown basis convention {convention!r}")
        self.group = group
        self.convention = convention
        n = group.order
        vals = tuple(tuple(row) for row in values)
        if len(vals) != n or any(len(r) != n for r in vals):
            raise ValueError("structure constant array has wrong shape")
        for g in range(n):
            if vals[0][g] != 1 or vals[g][0] != 1:
                raise ValueError("structure constant is not unital")
        if any(v == 0 for row in vals for v in row):
            raise ValueError("structure constant entries must be nonzero")
        self.values = vals

    def __call__(self, a, b):
        return self.values[a][b]

    def transpose(self):
        flipped = (
            RIGHT_STANDARD if self.convention == LEFT_STANDARD else LEFT_STANDARD
        )
        n = self.group.order
        return StructureConstant(
            self.group,
            [[self.values[b][a] for b in range(n)] for a in range(n)],
            flipped,
        )

    def __eq__(self, other):
        return (
            isinstance(other, StructureConstant)
            and self.group == other.group
            and self.values == other.values
        )

    def __hash__(self):
        return hash((self.group, self.values))

    def __repr__(self):
        return f"StructureConstant({self.group.name}, {self.values})"

    def markdown_table(self):
        labels = self.group.element_labels
        head = "| C | " + " | ".join(labels) + " |"
        sep = "|" + "---|" * (self.group.order + 1)
        lines = [head, sep]
        for a in range(self.group.order):
            cells = " | ".join(str(v) for v in self.values[a])
            lines.append(f"| {labels[a]} | {cells} |")
        return "\n".join(lines)


# -- the structure-tensor kernel ------------------------------------------
#
# An algebra is compiled once into sparse entries (i, j, k, c), meaning
# "e_i * e_j has coefficient c on e_k"; a twisted group algebra has the
# n^2 entries (a, b, ab, C(a, b)) of ``structure_entries``.  Every product
# and multiplication matrix is read off these entries by
# ``tensor_product`` and ``mult_matrix``.  A constant enters a kernel
# through ``_narrow``, so an integral one multiplies as an int.


def _narrow(v):
    """An integral ``Fraction`` as its int numerator; any other value as is."""
    return v.numerator if type(v) is Fraction and v.denominator == 1 else v


def structure_entries(constant):
    """The n^2 entries (a, b, ab, C(a, b)) of ``constant``, cells ``_narrow``ed."""
    return tuple(
        (a, b, ab, _narrow(c))
        for a, (row, cells) in enumerate(zip(constant.group.cayley, constant.values))
        for b, (ab, c) in enumerate(zip(row, cells))
    )


def _scalar_zero(f):
    # polynomial factors are never skipped, so a product of polynomial
    # vectors keeps polynomial components (zero polynomials included)
    return not isinstance(f, MultiPoly) and f == 0


def tensor_product(entries, x, y, zero):
    """Components of x*y: each entry adds x_i c y_j to component k.

    Zero scalar factors are skipped; a component that receives no term
    is ``zero``.
    """
    out = [None] * len(x)
    for i, j, k, c in entries:
        xi, yj = x[i], y[j]
        if _scalar_zero(xi) or _scalar_zero(yj):
            continue
        term = xi * c * yj
        acc = out[k]
        out[k] = term if acc is None else acc + term
    return [zero if v is None else v for v in out]


def mult_matrix(entries, v, left, zero):
    """Matrix of x -> x*v (``left``) or of y -> v*y, as a list of rows.

    Each entry adds c v_j to cell (k, i) of the left matrix and v_i c to
    cell (k, j) of the right one; a cell that receives no term is ``zero``.
    """
    n = len(v)
    rows = [[None] * n for _ in range(n)]
    for i, j, k, c in entries:
        col, term = (i, c * v[j]) if left else (j, v[i] * c)
        acc = rows[k][col]
        rows[k][col] = term if acc is None else acc + term
    return [[zero if t is None else t for t in row] for row in rows]


class AlgebraElement:
    """Element of a twisted group algebra: a coefficient per group element."""

    __slots__ = ("algebra", "coeffs")

    def __init__(self, algebra, coeffs):
        self.algebra = algebra
        self.coeffs = tuple(coeffs)
        if len(self.coeffs) != algebra.group.order:
            raise ValueError("coefficient vector has wrong length")

    def _check(self, other):
        if not isinstance(other, AlgebraElement):
            raise TypeError("expected an algebra element")
        self.algebra._check_member(other)

    def __add__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a + b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __sub__(self, other):
        self._check(other)
        return AlgebraElement(
            self.algebra, [a - b for a, b in zip(self.coeffs, other.coeffs)]
        )

    def __neg__(self):
        return AlgebraElement(self.algebra, [-a for a in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, AlgebraElement):
            return self.algebra.product(self, other)
        return AlgebraElement(self.algebra, [a * other for a in self.coeffs])

    def __rmul__(self, other):
        return AlgebraElement(self.algebra, [other * a for a in self.coeffs])

    def conj(self):
        return self.algebra.conjugate(self)

    def is_zero(self):
        return all(c == 0 for c in self.coeffs)

    def support(self):
        return {g for g, c in enumerate(self.coeffs) if c != 0}

    def __eq__(self, other):
        return (
            isinstance(other, AlgebraElement)
            and self.algebra.constant == other.algebra.constant
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash(self.coeffs)

    def __getitem__(self, g):
        return self.coeffs[g]

    def __repr__(self):
        return "[" + ", ".join(str(c) for c in self.coeffs) + "]"


class TwistedAlgebra:
    """Algebra with product v_a * v_b = C(a,b) v_{ab}, extended bilinearly."""

    def __init__(self, constant, ring=RATIONALS):
        if isinstance(ring, IntegersModP) and any(
            not isinstance(v, int) or v % ring.p == 0
            for row in constant.values
            for v in row
        ):
            raise ValueError(f"a {ring.name} table needs int cells nonzero mod {ring.p}")
        self.constant = constant
        self.group = constant.group
        self.ring = ring
        self.dimension = self.group.order
        self.entries = structure_entries(constant)
        self._zero = ring.coerce(0)

    # -- element construction -------------------------------------------

    def element(self, coeffs):
        return AlgebraElement(self, [self.ring.coerce(c) for c in coeffs])

    def basis_element(self, g):
        return self.element([1 if i == g else 0 for i in range(self.group.order)])

    def one(self):
        return self.basis_element(0)

    def zero(self):
        return self.element([0] * self.group.order)

    def generic_elements(self, *prefixes):
        """One element per prefix p, with component g the indeterminate
        p{g}, all in the ring of ``indeterminates(prefixes, n)``."""
        n = self.group.order
        v = MultiPoly.variables(indeterminates(prefixes, n))
        return [AlgebraElement(self, v[i:i + n]) for i in range(0, len(v), n)]

    # -- products --------------------------------------------------------

    def _check_member(self, x):
        if x.algebra is not self and (
            x.algebra.ring != self.ring or x.algebra.constant != self.constant
        ):
            raise ValueError("elements belong to different algebras")

    def product(self, x, y):
        """x*y with components sum_a x_a C(a, a^-1 c) y_{a^-1 c} on v_c."""
        self._check_member(x)
        self._check_member(y)
        return AlgebraElement(
            self, tensor_product(self.entries, x.coeffs, y.coeffs, self._zero)
        )

    def mult_matrix_left(self, y):
        """Matrix M with M_{c,a} = C(a, a^-1 c) y_{a^-1 c}, so M x = x*y."""
        self._check_member(y)
        return mult_matrix(self.entries, y.coeffs, True, self._zero)

    def mult_matrix_right(self, x):
        """Matrix M with M_{c,b} = x_{c b^-1} C(c b^-1, b), so M y = x*y."""
        self._check_member(x)
        return mult_matrix(self.entries, x.coeffs, False, self._zero)

    # -- involutions -------------------------------------------------

    def conjugate(self, x):
        """Negate every non-identity component (Z2, Z2xZ2 and Z4 gradings)."""
        if self.group.name not in ("Z2", "Z2xZ2", "Z4"):
            raise ValueError(
                f"conjugation is not defined for grading group {self.group.name}"
            )
        return AlgebraElement(
            self, [x.coeffs[0]] + [-c for c in x.coeffs[1:]]
        )

    def opposite(self):
        """Algebra with reversed products: constant transposed, basis mirrored
        (for an abelian grading group, whose Cayley table is its own transpose)."""
        if not self.group.is_abelian():
            raise ValueError(
                f"opposite() needs an abelian grading group, not {self.group.name}"
            )
        return TwistedAlgebra(self.constant.transpose(), self.ring)

    # -- inverses (exact rational solves) ------------------------------

    def left_inverse(self, y):
        """LI with LI * y = 1, from the linear system M^L LI = e0."""
        return self._solve_unit(self.mult_matrix_left(y), "left")

    def right_inverse(self, x):
        """RI with x * RI = 1, from the linear system M^R RI = e0."""
        return self._solve_unit(self.mult_matrix_right(x), "right")

    def _solve_unit(self, matrix, side):
        if self.ring != RATIONALS:
            raise ValueError(
                f"{side} inverses are solved over the rationals, not over the "
                f"{self.ring.name} ring; use norms.inverse_formulas"
            )
        sol = _linalg.solve(matrix, [1] + [0] * (len(matrix) - 1))
        if sol is None:
            raise ZeroDivisionError(f"element has no {side} inverse")
        return self.element(sol)

    # -- serialization -------------------------------------------------

    def to_json(self):
        def scalar(v):
            f = _narrow(Fraction(v))
            return f if type(f) is int else {"num": f.numerator, "den": f.denominator}

        return {
            "group": self.group.name,
            "basis": self.constant.convention,
            "ring": self.ring.name,
            "C": [[scalar(v) for v in row] for row in self.constant.values],
        }

    @classmethod
    def from_json(cls, data):
        """Inverse of ``to_json``; ValueError on a malformed document."""
        if not isinstance(data, dict):
            raise ValueError("algebra JSON must be an object")
        missing = [key for key in ("group", "C") if key not in data]
        if missing:
            raise ValueError(f"algebra JSON lacks {', '.join(missing)}")
        unknown = sorted(map(repr, set(data) - {"group", "basis", "ring", "C"}))
        if unknown:
            raise ValueError(f"algebra JSON has unknown keys {', '.join(unknown)}")
        group = group_by_name(data["group"])
        ring_name = data.get("ring", "rational")
        if ring_name == "rational":
            ring = RATIONALS
        elif isinstance(ring_name, str) and ring_name.startswith("mod-"):
            ring = IntegersModP(int(ring_name.split("-", 1)[1]))
        else:
            raise ValueError(f"unknown ring {ring_name!r}")

        def is_int(v):
            return isinstance(v, int) and not isinstance(v, bool)

        def scalar(v):
            if is_int(v):
                return v
            if (isinstance(v, dict) and v.keys() == {"num", "den"}
                    and is_int(v["num"]) and is_int(v["den"]) and v["den"]):
                return Fraction(v["num"], v["den"])
            raise ValueError(
                f"table entry {v!r} is neither an int nor a {{num, den}} pair"
            )

        rows = data["C"]
        if not isinstance(rows, list) or not all(isinstance(r, list) for r in rows):
            raise ValueError("C must be a list of rows")
        constant = StructureConstant(
            group,
            [[scalar(v) for v in row] for row in rows],
            data.get("basis", LEFT_STANDARD),
        )
        return cls(constant, ring)

    def __repr__(self):
        return f"TwistedAlgebra({self.group.name}, ring={self.ring.name})"


# -- the classified algebras -----------------------------------------

TABLE_COMPLEX = ((1, 1), (1, -1))

TABLE_QUATERNION = (
    (1, 1, 1, 1),
    (1, -1, 1, -1),
    (1, -1, -1, 1),
    (1, 1, -1, -1),
)

TABLE_TESSERANION = (
    (1, 1, 1, 1),
    (1, 1, 1, -1),
    (1, -1, -1, 1),
    (1, 1, -1, 1),
)


def complex_algebra():
    """The Z2-graded survivor: C with v1^2 = -1 (the complex numbers)."""
    constant = StructureConstant(group_by_name("Z2"), TABLE_COMPLEX, LEFT_STANDARD)
    return TwistedAlgebra(constant)


def quaternion_algebra():
    """The Klein-graded survivor in its right-standard basis (quaternions)."""
    constant = StructureConstant(
        group_by_name("Z2xZ2"), TABLE_QUATERNION, RIGHT_STANDARD
    )
    return TwistedAlgebra(constant)


def tesseranion_algebra(ring=RATIONALS):
    """The Z4-graded survivor in its left-standard basis (tesseranions)."""
    constant = StructureConstant(
        group_by_name("Z4"), TABLE_TESSERANION, LEFT_STANDARD
    )
    return TwistedAlgebra(constant, ring)


def algebra_by_name(name):
    key = name.lower()
    if key in ("cplx", "complex", "c"):
        return complex_algebra()
    if key in ("quat", "quaternion", "h"):
        return quaternion_algebra()
    if key in ("tes", "tesseranion", "t"):
        return tesseranion_algebra()
    raise ValueError(f"unknown algebra selector {name!r}")
