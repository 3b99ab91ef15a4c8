"""Executable acceptance suite: one machine-checked verdict per criterion.

Each criterion function returns (passed, detail); run_acceptance collects
them with timings.  Everything here is exact -- the only tolerances are
the stated runtime budgets.  No criterion samples: a claim about every
input is decided by an identity in generic elements, by a finite set of
inputs that spans the claim, or by induction on the code's own recursion.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology as coh
from . import identity_families as fam
from .algebra import (
    TABLE_COMPLEX,
    TABLE_QUATERNION,
    TABLE_TESSERANION,
    AlgebraElement,
    TwistedAlgebra,
    complex_algebra,
    quaternion_algebra,
    tesseranion_algebra,
)
from .classify import (
    RAW,
    SHAPED,
    RealRootRejection,
    classify,
    det_polynomial,
    det_polynomials,
    non_isomorphism_fingerprint,
    psd_certificate,
    verify_verdict,
)
from .deform import (
    TES_PARAMS,
    commutator_rescaling,
    family_constant,
    k_inverse_isomorphism,
    neccons_check,
    parametric_constant,
    witness_search,
)
from .groups import LEFT_STANDARD, RIGHT_STANDARD
from .identities import (
    L,
    N,
    identity_space,
    verify_conjugate_identities,
    verify_identity,
)
from .norms import (
    InvalidKey,
    IteratedNormSpec,
    _inverse_numerators,
    _solution_numerator,
    decrypt,
    encrypt,
    inverse_formulas,
    iterated_norm_power,
    norm4_monomial_expressions,
    pure_factor_equality,
    quartic_norm4,
    schwarz_table,
    triangle_claims,
)
from .poly import (
    MultiPoly,
    SignChangeWitness,
    count_real_roots,
)
from .structure import (
    DERIVED,
    LOWER_CENTRAL,
    TWO_SIDED,
    anticommutator_algebra,
    chiral_inverse_check,
    commutator_algebra,
    heisenberg_ideal_check,
    jacobi_check,
    jordan_check,
    jordan_residual,
    series,
)

# the level-1 iterated norm on R^4: the squared Euclidean norm
SQUARED_NORM = IteratedNormSpec(1, 4)


@dataclass
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str
    seconds: float


def criterion_1():
    """Shaped classification: unique survivors, byte-exact tables, < 1 s each.

    Each group is classified in the convention its table is written in
    and in the mirrored one, whose unique survivor is the transposed
    table (the opposite algebra; Z2's survivor is its own transpose).
    """
    runs = [
        ("Z2", LEFT_STANDARD, TABLE_COMPLEX),
        ("Z2xZ2", RIGHT_STANDARD, TABLE_QUATERNION),
        ("Z4", LEFT_STANDARD, TABLE_TESSERANION),
    ]
    details = []
    ok = True
    for name, convention, expected in runs:
        t0 = time.perf_counter()
        rep = classify(name, convention, SHAPED)
        dt = time.perf_counter() - t0
        survivor = rep.survivors[0][0].constant
        mirror = RIGHT_STANDARD if convention == LEFT_STANDARD else LEFT_STANDARD
        opposite = classify(name, mirror, SHAPED)
        match = survivor.values == expected
        transposed = (
            opposite.survivors[0][0].constant.values == survivor.transpose().values
        )
        good = (
            len(rep.survivors) == 1
            and match
            and dt < 1.0
            and len(opposite.survivors) == 1
            and transposed
        )
        ok = ok and good
        details.append(f"{name}/{convention}: survivors={len(rep.survivors)} "
                       f"match={match} {dt:.2f}s, {mirror}: "
                       f"survivors={len(opposite.survivors)} transposed={transposed}")
    return ok, "; ".join(details)


def criterion_2():
    """Survivor determinants equal the stated closed forms exactly: the
    squared sum of squares for H, the quartic norm for T."""
    H, T = quaternion_algebra(), tesseranion_algebra()
    ok_h = all(
        (det - iterated_norm_power(SQUARED_NORM, MultiPoly.variables(det.vars))**2).is_zero
        for det in det_polynomials(H.constant)
    )
    ok_t = all(
        (det - quartic_norm4(AlgebraElement(T, MultiPoly.variables(det.vars)))).is_zero
        for det in det_polynomials(T.constant)
    )
    return ok_h and ok_t, f"quaternion forms: {ok_h}; tesseranion forms: {ok_t}"


def criterion_3():
    """All rejected candidates carry verified certificates; none undetermined.

    One of the 63 rejected order-4 cyclic candidates has positive
    semidefinite determinants whose nontrivial zeros are irrational, so
    no rational sign-change pair exists for it; it carries a Sturm
    real-root certificate on a rational line instead (62 + 1 split).
    """
    rep4 = classify("Z4", LEFT_STANDARD, SHAPED)
    repk = classify("Z2xZ2", RIGHT_STANDARD, SHAPED)
    ok = len(rep4.rejected) == 63 and len(repk.rejected) == 31
    ok = ok and not rep4.undetermined and not repk.undetermined
    sign4 = sum(
        1 for _, w in rep4.rejected if isinstance(w, SignChangeWitness)
    )
    root4 = sum(
        1 for _, w in rep4.rejected if isinstance(w, RealRootRejection)
    )
    signk = sum(
        1 for _, w in repk.rejected if isinstance(w, SignChangeWitness)
    )
    ok = ok and sign4 == 62 and root4 == 1 and signk == 31
    ok = ok and all(
        verify_verdict(c.constant, w) for c, w in rep4.rejected + repk.rejected
    )
    # the real-root candidate's determinant is provably PSD (an SOS
    # certificate, which find_psd_sos returns only once it verifies)
    ok = ok and sum(
        psd_certificate(c.constant) is not None
        for c, w in rep4.rejected if isinstance(w, RealRootRejection)
    ) == 1
    return ok, (
        f"Z4: 62 sign-change + {root4} real-root certificate (PSD candidate), "
        f"verified; Klein: {signk} sign-change, verified; undetermined empty"
    )


def criterion_4():
    """Identity-space dimensions 1, 2, 14, 9, 9, 34; degree-6 under 2 min."""
    T = tesseranion_algebra()
    targets = [((2, 1), 1), ((4,), 2), ((2, 2), 14), ((3, 1), 9), ((5,), 9)]
    dims = {}
    for pattern, want in targets:
        dims[pattern] = identity_space(T, pattern).dimension
    t0 = time.perf_counter()
    dims[(6,)] = identity_space(T, (6,)).dimension
    dt6 = time.perf_counter() - t0
    want_all = dict(targets)
    want_all[(6,)] = 34
    ok = dims == want_all and dt6 < 120.0
    return ok, f"dims={dims} (degree 6 in {dt6:.2f}s)"


def criterion_5():
    """Every listed identity verifies; each family at its unit assignments."""
    T = tesseranion_algebra()
    named = [fam.CUBIC_TWO_VAR, fam.QUARTIC_ONE_VAR_A, fam.QUARTIC_ONE_VAR_B]
    named += list(fam.QUARTIC_TWO_VAR_LISTED.values())
    ok = all(verify_identity(T, combo) for combo in named)
    ok = ok and verify_conjugate_identities(T)
    (x,) = T.generic_elements("x")
    exprs = norm4_monomial_expressions(x)
    ok = ok and all(e == exprs[0] for e in exprs[1:])
    # instantiate_family is linear in the free values and identity_residual
    # in the combination, so the unit assignments decide every assignment
    count = 0
    for family in ("quartic-two-var", "quartic-cubic-linear", "quintic", "sextic"):
        for name in fam.FAMILIES[family][1]:
            if not verify_identity(T, fam.instantiate_family(family, {name: 1})):
                return False, f"{family} fails at the unit assignment {name} = 1"
            count += 1
    return ok, (
        f"13 listed identities + conjugate identities + {count} unit "
        "instantiations (so 4 families at every assignment)"
    )


def criterion_6():
    """Cohomological functions and their closed forms."""
    T = tesseranion_algebra()
    H = quaternion_algebra()
    rT, qT = coh.r_function(T.constant), coh.q_function(T.constant)
    rH, qH = coh.r_function(H.constant), coh.q_function(H.constant)
    pairs = coh.klein_pairs(H.group)
    rng4 = range(4)
    checks = {
        "r_H == 1": all(rH(a, b, c) == 1 for a in rng4 for b in rng4 for c in rng4),
        "q_H separable": coh.is_separable(qH, H.group),
        "kappa_H closed form": coh.is_coboundary_witness(
            qH, H.group, lambda a: coh.kappa_quat_closed(pairs[a])
        ),
        "r_T closed form": all(
            coh.r_tes_closed(n, m, h) == rT(n, m, h)
            for n in rng4 for m in rng4 for h in rng4
        ),
        "q_T coboundary via closed kappa": coh.is_coboundary_witness(
            qT, T.group, coh.kappa_tes_closed
        ),
        "q_T not separable": not coh.is_separable(qT, T.group),
        "C_T closed form": all(
            coh.c_tes_closed(n, m) == T.constant(n, m) for n in rng4 for m in rng4
        ),
        "C_H closed form": all(
            coh.c_quat_closed(pairs[a], pairs[b]) == H.constant(a, b)
            for a in rng4 for b in rng4
        ),
        "q_T closed form": all(
            coh.q_tes_closed(n, m) == qT(n, m) for n in rng4 for m in rng4
        ),
        "q_H closed form": all(
            coh.q_quat_closed(pairs[a], pairs[b]) == qH(a, b)
            for a in rng4 for b in rng4
        ),
    }
    violation = coh.separability_violation(qT, T.group)
    ok = all(checks.values()) and violation is not None
    failed = [k for k, v in checks.items() if not v]
    return ok, (
        f"violating triple for q_T separability: {violation}"
        if ok
        else f"failed: {failed}"
    )


def criterion_7():
    """Commutator/anticommutator structure of the Z4 survivor."""
    T = tesseranion_algebra()
    Tm = commutator_algebra(T)
    Tp = anticommutator_algebra(T)
    jac, _ = jacobi_check(Tm)
    der = series(Tm, DERIVED)
    low = series(Tm, LOWER_CENTRAL)
    heis = heisenberg_ideal_check(Tm)
    jordan_ok, jordan_ce = jordan_check(Tp)
    # residual must equal the closed form (x1^2+x3^2)[-(y1x1+y3x3), x1y2, 0, x3y2]
    x, y = T.generic_elements("x", "y")
    (_, x1, _, x3), (_, y1, y2, y3) = x.coeffs, y.coeffs
    factor = x1 * x1 + x3 * x3
    closed = [
        -(y1 * x1 + y3 * x3) * factor,
        x1 * y2 * factor,
        MultiPoly.zero(factor.vars),
        x3 * y2 * factor,
    ]
    residual = jordan_residual(Tp)
    residual_ok = all((a - b).is_zero for a, b in zip(residual, closed))
    # flexibility and ((xx)x)x = (xx)(xx) of the symmetric product
    x, y = L(0), L(1)
    xx = N(x, x)
    flex = verify_identity(Tp, [(1, N(N(x, y), x)), (-1, N(x, N(y, x)))])
    power = verify_identity(Tp, [(1, N(N(xx, x), x)), (-1, N(xx, xx))])
    ok = (
        jac
        and der.dimensions == [4, 3, 1, 0]
        and der.solvable
        and low.dimensions == [4, 3, 3]
        and low.stabilizes
        and not low.nilpotent
        and heis
        and flex
        and not jordan_ok
        and jordan_ce is not None
        and residual_ok
        and not power
    )
    return ok, (
        f"jacobi={jac} derived={der.dimensions} lower-central={low.dimensions} "
        f"(stabilizes) heisenberg={heis} flexible={flex} jordan=False "
        f"(residual matches closed form={residual_ok}) power-assoc={power}"
    )


def _solves(a, c, x, y):
    """True iff a*x = |a|^4 c and y*a = |a|^4 c exactly."""
    target = c * quartic_norm4(a)
    return a * x == target and y * a == target


def criterion_8():
    """Chiral inverses of the Z4 survivor; two-sided elsewhere.

    LI*x = |x|^4 = x*RI holds for the numerators in generic x, and
    det M^L = det M^R = |x|^4 (criterion 2), so for every x != 0 the
    formulas are the unique one-sided inverses."""
    T = tesseranion_algebra()
    w = T.element([0, 1, 0, 0])
    w3 = T.element([0, 0, 0, 1])
    li, ri = inverse_formulas(w)
    ok = li == w3 and ri == -w3
    ok = ok and (li * w) == T.one() and (w * ri) == T.one()
    kind_h, _ = chiral_inverse_check(quaternion_algebra())
    kind_c, _ = chiral_inverse_check(complex_algebra())
    ok = ok and kind_h == TWO_SIDED and kind_c == TWO_SIDED
    (x,) = T.generic_elements("x")
    li_num, ri_num = _inverse_numerators(x)
    generic = _solves(x, T.one(), ri_num, li_num)
    return ok and generic, (
        "LI(w)=w^3, RI(w)=-w^3; H and C two-sided; "
        f"LI(x)*x = 1 = x*RI(x) in generic x={generic}"
    )


def criterion_9():
    """Schwarz defects -16, 0, 8; pure factors give equality; H is normed."""
    T = tesseranion_algebra()
    vals = tuple(schwarz_table(T).values())
    pure = pure_factor_equality(T)
    # quaternion strict Schwarz equality, symbolically
    H = quaternion_algebra()
    x, y = H.generic_elements("x", "y")

    def norm2(v):
        return iterated_norm_power(SQUARED_NORM, v.coeffs)

    strict = (norm2(x * y) - norm2(x) * norm2(y)).is_zero
    ok = vals == (-16, 0, 8) and pure and strict
    defects = ", ".join(map(str, vals))
    return ok, (
        f"defects={defects}; pure even or odd factor on either side of "
        f"generic y exact={pure}; H strict Schwarz={strict}"
    )


def criterion_10():
    """Iterated norms are norms, by induction on the level j.

    The base, P_1 = sum of squares for n = 1..3, is read from
    ``triangle_claims``, whose docstring gives the induction to j = 2..4."""
    claims = triangle_claims()
    base = all(claims[f"j=1,n={n}"] for n in range(1, 4))
    # M2 on (x0, x2, x1, x3) has fourth power equal to the quartic norm
    (x,) = tesseranion_algebra().generic_elements("x")
    x0, x1, x2, x3 = x.coeffs
    power = iterated_norm_power(IteratedNormSpec(2, 2), [x0, x2, x1, x3])
    closed = quartic_norm4(x)
    symbolic = (power - closed).is_zero
    return base and symbolic, (
        f"P_1 = sum of squares for n=1..3={base}; j=2..4 by induction "
        "(l_(2^j) of the halves' norms, Minkowski); "
        f"M2 symbolic match={symbolic}"
    )


def criterion_11():
    """Fingerprint separation and the pinned raw-mode regression values.

    Raw Z4's 508 rejections share the witnesses of 99 distinct det M^L,
    each searched once; every certificate is re-checked here against its
    own candidate.
    """
    fp_h = non_isomorphism_fingerprint(quaternion_algebra())
    fp_t = non_isomorphism_fingerprint(tesseranion_algebra())
    ok = fp_h.power_associative and not fp_t.power_associative
    rep = classify("Z4", LEFT_STANDARD, RAW)
    counts = rep.counts()
    # pinned at first build: the raw survivors are the four sign-rescalings
    # of the shaped survivor, every reject is certified, none undetermined
    ok = ok and counts == {
        "examined": 512, "rejected": 508, "survivors": 4, "undetermined": 0,
    }
    # a survivor carries two certificates, one per determinant
    verified = sum(verify_verdict(c.constant, w) for c, w in rep.rejected)
    verified += 2 * sum(verify_verdict(c.constant, cert) for c, cert in rep.survivors)
    certificates = len(rep.rejected) + 2 * len(rep.survivors)
    ok = ok and verified == certificates
    fps = [
        non_isomorphism_fingerprint(TwistedAlgebra(c.constant))
        for c, _ in rep.survivors
    ]
    ok = ok and all(fp == fp_t for fp in fps)
    return ok, (
        f"H power-assoc={fp_h.power_associative}, T={fp_t.power_associative}; "
        f"raw Z4 counts={counts}; {verified}/{certificates} raw certificates "
        f"re-verified; all {len(fps)} raw survivors share T's fingerprint"
    )


def criterion_12():
    """Deformation families: conditions, witnesses, isomorphisms."""
    ks = (Fraction(2), Fraction(3), Fraction(4), Fraction(1, 2))
    for fid in range(1, 9):
        for k in ks:
            member = family_constant(fid, k)
            if not member.in_range:
                return False, f"family {fid} at k={k} unexpectedly out of range"
            ok, violated = neccons_check(member.parameter_map)
            if not ok:
                return False, f"family {fid} k={k} violates {violated}"
            if witness_search(member.constant()) is not None:
                return False, f"family {fid} k={k} has an unexpected witness"
    # the eps=-1 probe: restricted determinant is exactly (y1^2 - 2)^2
    probe = dict(TES_PARAMS)
    probe.update({"alpha": 1, "beta": 1, "delta": -1, "epsilon": -1})
    det_l = det_polynomial(parametric_constant(probe))
    # the line y1 = t with (y0, y2, y3) = (1, 1, 0)
    witness = RealRootRejection.on_line(det_l, 1, (1, 1, 0))
    coeffs = list(witness.coefficients) if witness is not None else None
    target = [Fraction(c) for c in (4, 0, -4, 0, 1)]  # (t^2 - 2)^2
    probe_ok = coeffs == target and count_real_roots(coeffs, 1, 2) == 1
    if not probe_ok:
        return False, f"eps=-1 probe mismatch: {coeffs}"
    iso = k_inverse_isomorphism(4)
    resc = all(commutator_rescaling(k) == (True, True) for k in (7, 49))
    ok = iso and resc
    return ok, (
        "NecCons + empty witness search for families 1-8 at k in {2,3,4,1/2}; "
        "eps=-1 slice equals (y1^2-2)^2 with certified root in (1,2]; "
        f"k=4 <-> 1/4 isomorphism={iso}; commutator rescaling k=7,49={resc}"
    )


def criterion_13():
    """Encryption round-trips mod every odd p, and key validation.

    ``encrypt``'s numerators solve a*x = |a|^4 c and y*a = |a|^4 c in
    generic a, c over T, whose cells are +-1: so over Z and mod every odd
    p, and decrypt inverts encrypt for every key with |a|^4 != 0 mod p."""
    T = tesseranion_algebra()
    cells = {v for row in T.constant.values for v in row} <= {1, -1}
    a, c = T.generic_elements("a", "c")
    x, y = (_solution_numerator(a, c, side) for side in ("left", "right"))
    generic = _solves(a, c, x, y)
    p, key, message = 257, [1, 2, 3, 4], [5, 6, 7, 8]
    for side in ("left", "right"):
        if decrypt(key, encrypt(key, message, p, side), p, side) != tuple(message):
            return False, f"{side} round trip failed over Z_{p}"
    try:
        encrypt([4, 1, 0, 0], [1, 2, 3, 4], p)  # |a|^4 = 16^2 + 1 = 257 = 0
        return False, "invalid key was not rejected"
    except InvalidKey:
        pass
    return cells and generic, (
        f"a*x = |a|^4 c and y*a = |a|^4 c in generic a, c={generic}, "
        f"T's cells +-1={cells}, so exact mod every odd p; both sides "
        f"round-trip over Z_{p}; invalid key rejected"
    )


def criterion_14():
    """The equation (x x^2 - x^2 x) x - 2 = 0 is solved by the generator."""
    T = tesseranion_algebra()
    w = T.element([0, 1, 0, 0])
    w2 = w * w
    lhs = (w * w2 - w2 * w) * w - T.element([2, 0, 0, 0])
    obstruction = w * w2 == w2 * w
    ok = lhs.is_zero() and not obstruction
    return ok, f"(w w^2 - w^2 w) w = 2 exactly; alternative law fails at w"


CRITERIA = [
    (1, "classification uniqueness (tables I, III, V)", criterion_1),
    (2, "survivor determinant closed forms", criterion_2),
    (3, "rejection completeness with verified certificates", criterion_3),
    (4, "identity-space dimensions 1/2/14/9/9/34", criterion_4),
    (5, "stated identities and condition families", criterion_5),
    (6, "cohomological functions and closed forms", criterion_6),
    (7, "commutator/anticommutator structure", criterion_7),
    (8, "chiral inverses", criterion_8),
    (9, "Schwarz defects and pure-factor equality", criterion_9),
    (10, "iterated norm family", criterion_10),
    (11, "non-isomorphism fingerprints and raw-mode regression", criterion_11),
    (12, "deformation families", criterion_12),
    (13, "mod-p encryption round-trip", criterion_13),
    (14, "equation-solving showcase", criterion_14),
]


def run_acceptance(numbers=None):
    """Run the criteria whose numbers are given (all by default)."""
    if numbers is not None:
        unknown = sorted(set(numbers) - {number for number, _, _ in CRITERIA})
        if unknown:
            raise ValueError(f"unknown criterion number(s): {unknown}")
    results = []
    for number, description, fn in CRITERIA:
        if numbers is not None and number not in numbers:
            continue
        t0 = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # surface failures as red, never crash the suite
            passed, detail = False, f"exception: {exc!r}"
        results.append(
            CriterionResult(
                number, description, passed, detail, time.perf_counter() - t0
            )
        )
    return results
