"""Output checks, run after the timed region.

Each check is one checked output; ``error_rate`` is failed / attempted.
Witnesses of rejection are re-verified by exact arithmetic that shares
no search code: a sign-change witness by the exact determinant of the
multiplication matrix at each of its two points.
"""

from __future__ import annotations

import importlib
from fractions import Fraction


def _mod(name):
    return importlib.import_module(f"twistdiv.{name}")


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages = []

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.messages) < 20:
                self.messages.append(what)


# -- classify-all ---------------------------------------------------------

# (group, mode) -> (examined, sign-change rejections, line-root rejections,
# survivors); nothing is undetermined, in either basis convention
PINNED_COUNTS = {
    ("Z2", "shaped"): (2, 1, 0, 1),
    ("Z2xZ2", "shaped"): (32, 31, 0, 1),
    ("Z4", "shaped"): (64, 62, 1, 1),
    ("Z2xZ2", "raw"): (512, 510, 0, 2),
    ("Z4", "raw"): (512, 504, 4, 4),
}


def exact_det(rows):
    """Determinant over the rationals by Gaussian elimination."""
    m = [[Fraction(x) for x in row] for row in rows]
    n = len(m)
    det = Fraction(1)
    for c in range(n):
        pivot = next((r for r in range(c, n) if m[r][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            m[c], m[pivot] = m[pivot], m[c]
            det = -det
        det *= m[c][c]
        for r in range(c + 1, n):
            f = m[r][c] / m[c][c]
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[c])]
    return det


def left_det_at(constant, y):
    """det M^L(y), where M^L(y) x = x * y, i.e. M_{c,a} = C(a, b) y_b with
    b = a^-1 c."""
    group = constant.group
    n = group.order
    rows = []
    for c in range(n):
        row = []
        for a in range(n):
            b = group.mul(group.inverse(a), c)
            row.append(constant(a, b) * Fraction(y[b]))
        rows.append(row)
    return exact_det(rows)


def _sign_change_ok(constant, w):
    pos, nonpos = w.positive_point, w.nonpositive_point
    if not any(pos) or not any(nonpos):
        return False
    vp, vn = left_det_at(constant, pos), left_det_at(constant, nonpos)
    return vp > 0 and vn <= 0 and vp == w.positive_value and vn == w.nonpositive_value


def check_classify(inputs, reports, tally):
    classify = _mod("classify")
    poly = _mod("poly")
    for (group, convention, mode), report in zip(inputs, reports):
        label = f"{group.name} {mode} {convention}"
        kinds = [type(w).__name__ for _, w in report.rejected]
        got = (
            report.candidates_examined,
            kinds.count("SignChangeWitness"),
            kinds.count("RealRootRejection"),
            len(report.survivors),
        )
        tally.check(
            got == PINNED_COUNTS[(group.name, mode)] and not report.undetermined
            and len(kinds) == got[1] + got[2],
            f"{label}: counts {got}, undetermined {len(report.undetermined)}",
        )
        for cand, w in report.rejected:
            if type(w).__name__ == "SignChangeWitness":
                ok = _sign_change_ok(cand.constant, w)
            else:
                ok = w.verify(classify.det_polynomials(cand.constant)[0])
            tally.check(ok, f"{label}: witness {w} does not verify")
        for cand, cert in report.survivors:
            det_l, det_r = classify.det_polynomials(cand.constant)
            ok = (
                cert.kind == "positive-definite-sos"
                and poly.certifies_positive_definite(det_l, cert.cert_left)
                and poly.certifies_positive_definite(det_r, cert.cert_right)
            )
            tally.check(ok, f"{label}: survivor certificate does not verify")


# -- analyze-algebras -----------------------------------------------------

_ALL_FAIL = dict.fromkeys(
    ("flexible", "power_associative", "alternative", "left_bol", "right_bol",
     "moufang", "commutative", "associative"), False)

# expected results per algebra kind; every T-like algebra (T, its sign
# rescalings and the deformation members) fails every loop law, has
# chiral inverses and the same commutator series
_T_LIKE = {
    "loop": _ALL_FAIL,
    "chirality": "chiral",
    "derived": ([4, 3, 1, 0], True, False),
    "lower_central": ([4, 3, 3], False, True),
    "jacobi": True,
}
PINNED_ANALYSIS = {
    "H": {
        "loop": dict(_ALL_FAIL, flexible=True, power_associative=True,
                     alternative=True, left_bol=True, right_bol=True,
                     moufang=True, associative=True),
        "chirality": "two-sided",
        "derived": ([4, 3, 3], False, True),
        "lower_central": ([4, 3, 3], False, True),
        "jacobi": True,
        "identity_dims": (((2, 1), 3), ((4,), 4)),
    },
    "T": dict(_T_LIKE, identity_dims=(((2, 1), 1), ((4,), 2))),
}


def _pins_for(key):
    if key in PINNED_ANALYSIS:
        return PINNED_ANALYSIS[key]
    # deformation members, keyed by family: families 1 and 3 keep a
    # 1-dimensional identity space at pattern (4,)
    dims = (((2, 1), 0), ((4,), 1 if key in (1, 3) else 0))
    return dict(_T_LIKE, identity_dims=dims)


def _law_residual(law, args):
    """The law's two sides subtracted at concrete elements."""
    x, y, z = (list(args) + [None, None])[:3]
    if law == "flexible":
        return (x * y) * x - x * (y * x)
    if law == "left_alternative":
        return x * (x * y) - (x * x) * y
    if law == "right_alternative":
        return (y * x) * x - y * (x * x)
    if law == "commutative":
        return x * y - y * x
    if law == "associative":
        return (x * y) * z - x * (y * z)
    if law == "left_bol":
        return x * (y * (x * z)) - (x * (y * x)) * z
    if law == "right_bol":
        return ((z * x) * y) * x - z * ((x * y) * x)
    if law == "moufang":
        return (x * y) * (z * x) - (x * (y * z)) * x
    if law == "cube":
        return x * (x * x) - (x * x) * x
    raise ValueError(law)


def _power_associativity_fails(x):
    xx = x * x
    powers4 = [((xx * x) * x), ((x * xx) * x), (xx * xx), (x * (xx * x)),
               (x * (x * xx))]
    return not _law_residual("cube", (x,)).is_zero() or len(
        {p.coeffs for p in powers4}) > 1


def check_analysis(inputs, results, tally):
    structure = _mod("structure")
    for (label, alg, key), res, props in zip(
            inputs["algebras"], results, inputs["loop_results"]):
        pins = _pins_for(key)
        fp = res["fingerprint"]
        verdicts = {k: getattr(props, k) for k in pins["loop"]}
        tally.check(verdicts == pins["loop"], f"{label}: loop verdicts {verdicts}")
        tally.check(
            (fp.power_associative, fp.flexible, fp.commutative)
            == (pins["loop"]["power_associative"], pins["loop"]["flexible"],
                pins["loop"]["commutative"]),
            f"{label}: fingerprint bits disagree with the loop verdicts",
        )
        tally.check(fp.identity_dims == pins["identity_dims"],
                    f"{label}: identity dims {fp.identity_dims}")
        for law, args in props.counterexamples.items():
            if law == "power_associative":
                ok = _power_associativity_fails(args[0])
            else:
                ok = not _law_residual(law, args).is_zero()
            tally.check(ok, f"{label}: counterexample to {law} does not violate it")
        verdict, witness = res["chirality"]
        ok = verdict == pins["chirality"]
        if ok and verdict == structure.CHIRAL:
            # chiral_inverse_check may report chirality without a witness
            try:
                one = alg.one()
                li, ri = alg.left_inverse(witness), alg.right_inverse(witness)
                ok = li * witness == one and witness * ri == one and li != ri
            except (AttributeError, ZeroDivisionError):
                ok = False
        tally.check(ok, f"{label}: inverse chirality {verdict}")
        for kind in ("derived", "lower_central"):
            s = res[kind]
            got = (s.dimensions, s.terminates, s.stabilizes)
            tally.check(got == tuple(pins[kind]), f"{label}: {kind} series {got}")
        tally.check(res["jacobi"][0] is pins["jacobi"], f"{label}: jacobi {res['jacobi']}")


# -- identity-spaces --------------------------------------------------------

# (algebra, pattern) -> (monomials, identity-space dimension)
PINNED_DIMENSIONS = {
    ("T", (6,)): (42, 34),
    ("T", (2, 2)): (30, 14),
    ("T", (3, 2)): (140, 104),
    ("T", (4, 1)): (70, 50),
    ("T", (2, 1, 1)): (60, 31),
    ("H", (3, 2)): (140, 131),
    ("H", (2, 2, 1)): (420, 394),
}


def check_identity_spaces(inputs, spaces, tally, seed):
    identities = _mod("identities")
    for (name, alg, pattern), space in zip(inputs, spaces):
        got = (len(space.monomials), space.dimension)
        tally.check(got == PINNED_DIMENSIONS[(name, pattern)] and
                    len(space.nullspace_basis) == space.dimension,
                    f"{name} {pattern}: (monomials, dimension) {got}")
        if not space.nullspace_basis:
            continue
        # the seed picks which basis vector is re-checked symbolically
        vec = space.nullspace_basis[seed % len(space.nullspace_basis)]
        combo = [(c, t) for c, t in zip(vec, space.monomials) if c != 0]
        tally.check(bool(combo) and identities.verify_identity(alg, combo),
                    f"{name} {pattern}: basis vector is not an identity")


def check(workload, inputs, outputs, seed):
    tally = Tally()
    if workload == "classify-all":
        check_classify(inputs, outputs, tally)
    elif workload == "analyze-algebras":
        check_analysis(inputs, outputs, tally)
    else:
        check_identity_spaces(inputs, outputs, tally, seed)
    return tally
