"""Executable acceptance suite: one machine-checked verdict per criterion.

Each criterion function returns (passed, detail); run_acceptance collects
them with timings.  Everything here is exact -- the only tolerances are
the stated runtime budgets, and random sampling is seeded so the suite is
reproducible run to run.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction

from . import cohomology as coh
from . import identity_families as fam
from .algebra import (
    TABLE_COMPLEX,
    TABLE_QUATERNION,
    TABLE_TESSERANION,
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
from .identities import L, N, verify_identity
from .norms import (
    InvalidKey,
    IteratedNormSpec,
    decrypt,
    encrypt,
    inverse_formulas,
    iterated_norm_power,
    positive_homogeneity_check,
    pure_factor_defects,
    quartic_norm4,
    schwarz_table,
    triangle_sweep,
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

SEED = 20240 + 817


@dataclass
class CriterionResult:
    number: int
    description: str
    passed: bool
    detail: str
    seconds: float


def _freeze(table):
    return tuple(tuple(row) for row in table)


def criterion_1():
    """Shaped classification: unique survivors, byte-exact tables, < 1 s each."""
    runs = [
        ("Z2", LEFT_STANDARD, _freeze(TABLE_COMPLEX)),
        ("Z2xZ2", RIGHT_STANDARD, _freeze(TABLE_QUATERNION)),
        ("Z4", LEFT_STANDARD, _freeze(TABLE_TESSERANION)),
    ]
    details = []
    ok = True
    for name, convention, expected in runs:
        t0 = time.perf_counter()
        rep = classify(name, convention, SHAPED)
        dt = time.perf_counter() - t0
        good = (
            len(rep.survivors) == 1
            and rep.survivors[0][0].constant.values == expected
            and dt < 1.0
        )
        ok = ok and good
        details.append(f"{name}/{convention}: survivors={len(rep.survivors)} "
                       f"match={rep.survivors[0][0].constant.values == expected} "
                       f"{dt:.2f}s")
    return ok, "; ".join(details)


def criterion_2():
    """Survivor determinants equal the stated closed forms exactly."""
    det_l_h, det_r_h = det_polynomials(quaternion_algebra().constant)
    y = MultiPoly.variables(det_l_h.vars)
    x = MultiPoly.variables(det_r_h.vars)
    sum_sq_y = sum((v * v for v in y[1:]), start=y[0] * y[0])
    sum_sq_x = sum((v * v for v in x[1:]), start=x[0] * x[0])
    ok_h = (det_l_h - sum_sq_y**2).is_zero and (det_r_h - sum_sq_x**2).is_zero
    det_l_t, det_r_t = det_polynomials(tesseranion_algebra().constant)
    y0, y1, y2, y3 = MultiPoly.variables(det_l_t.vars)
    x0, x1, x2, x3 = MultiPoly.variables(det_r_t.vars)
    form_y = (y0 * y0 + y2 * y2) ** 2 + (y1 * y1 + y3 * y3) ** 2
    form_x = (x0 * x0 + x2 * x2) ** 2 + (x1 * x1 + x3 * x3) ** 2
    ok_t = (det_l_t - form_y).is_zero and (det_r_t - form_x).is_zero
    return ok_h and ok_t, f"quaternion forms: {ok_h}; tesseranion forms: {ok_t}"


def _verify_rejection(candidate, witness):
    det_l = det_polynomial(candidate.constant)
    if isinstance(witness, SignChangeWitness):
        return witness.verify(det_l.evaluate)
    if isinstance(witness, RealRootRejection):
        return witness.verify(det_l)
    return False


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
    ok = ok and all(_verify_rejection(c, w) for c, w in rep4.rejected)
    ok = ok and all(_verify_rejection(c, w) for c, w in repk.rejected)
    # the real-root candidate's determinant is provably PSD (SOS on file)
    ok = ok and len(rep4.psd_annotations) == 1
    return ok, (
        f"Z4: 62 sign-change + {root4} real-root certificate (PSD candidate), "
        f"verified; Klein: {signk} sign-change, verified; undetermined empty"
    )


def criterion_4():
    """Identity-space dimensions 1, 2, 14, 9, 9, 34; degree-6 under 2 min."""
    from .identities import identity_space

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
    """Every listed identity verifies; 20 random instantiations per family."""
    T = tesseranion_algebra()
    named = [fam.CUBIC_TWO_VAR, fam.QUARTIC_ONE_VAR_A, fam.QUARTIC_ONE_VAR_B]
    named += list(fam.QUARTIC_TWO_VAR_LISTED.values())
    ok = all(verify_identity(T, combo) for combo in named)
    from .identities import verify_conjugate_identities
    from .norms import norm4_monomial_expressions

    ok = ok and verify_conjugate_identities(T)
    names = tuple(f"x{i}" for i in range(4))
    x = T.generic_element("x", names)
    exprs = norm4_monomial_expressions(x)
    first = exprs[0]
    ok = ok and all(
        all((a - b).is_zero for a, b in zip(e.coeffs, first.coeffs))
        for e in exprs[1:]
    )
    rng = random.Random(SEED)
    count = 0
    for family in ("quartic-two-var", "quartic-cubic-linear", "quintic", "sextic"):
        free = fam.FAMILIES[family][1]
        for _ in range(20):
            assignment = {
                n: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for n in free
            }
            combo = fam.instantiate_family(family, assignment)
            if not verify_identity(T, combo):
                return False, f"instantiation of {family} failed: {assignment}"
            count += 1
    return ok, f"13 listed identities + conjugate identities + {count} instantiations"


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
    names = tuple(f"{p}{i}" for p in ("x", "y") for i in range(4))
    v = MultiPoly.variables(names)
    x1, x3, y1, y2, y3 = v[1], v[3], v[5], v[6], v[7]
    factor = x1 * x1 + x3 * x3
    closed = [
        -(y1 * x1 + y3 * x3) * factor,
        x1 * y2 * factor,
        MultiPoly.zero(names),
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


def criterion_8():
    """Chiral inverses of the Z4 survivor; two-sided elsewhere."""
    T = tesseranion_algebra()
    w = T.element([0, 1, 0, 0])
    w3 = T.element([0, 0, 0, 1])
    li, ri = inverse_formulas(w)
    ok = li == w3 and ri == -w3
    ok = ok and (li * w) == T.one() and (w * ri) == T.one()
    kind_h, _ = chiral_inverse_check(quaternion_algebra())
    kind_c, _ = chiral_inverse_check(complex_algebra())
    ok = ok and kind_h == TWO_SIDED and kind_c == TWO_SIDED
    rng = random.Random(SEED + 8)
    agree = 0
    while agree < 100:
        coeffs = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(4)]
        x = T.element(coeffs)
        if x.is_zero() or quartic_norm4(x) == 0:
            continue
        li_f, ri_f = inverse_formulas(x)
        if li_f != T.left_inverse(x) or ri_f != T.right_inverse(x):
            return False, f"formula/solve mismatch at {coeffs}"
        agree += 1
    return ok, f"LI(w)=w^3, RI(w)=-w^3; H and C two-sided; {agree} random agreements"


def criterion_9():
    """Schwarz defects -16, 0, 8; pure factors give equality; H is normed."""
    T = tesseranion_algebra()
    vals = tuple(schwarz_table(T).values())
    bad = pure_factor_defects(T, random.Random(SEED + 9), 100)
    # quaternion strict Schwarz equality, symbolically
    H = quaternion_algebra()
    names = tuple(f"{pfx}{i}" for pfx in ("x", "y") for i in range(4))
    x = H.generic_element("x", names)
    y = H.generic_element("y", names)

    def norm2(v):
        return sum((c * c for c in v.coeffs[1:]), start=v.coeffs[0] * v.coeffs[0])

    strict = (norm2(x * y) - norm2(x) * norm2(y)).is_zero
    ok = vals == (-16, 0, 8) and bad == 0 and strict
    return ok, f"defects={vals}; {100 - bad} pure pairings exact; H strict Schwarz={strict}"


def criterion_10():
    """Iterated norms: triangle + homogeneity on 10^4 seeded samples."""
    rng = random.Random(SEED + 10)
    combos = [(j, n) for j in range(1, 5) for n in range(1, 4)]
    per = 10_000 // len(combos) + 1
    triangle = triangle_sweep(rng, per)
    for j, n in combos:
        if not triangle[f"j={j},n={n}"]:
            return False, f"triangle inequality failed for j={j}, n={n}"
        spec = IteratedNormSpec(j, n)
        hom_samples = [
            (Fraction(rng.randint(-6, 6)), [rng.randint(-9, 9) for _ in range(spec.length)])
            for _ in range(per)
        ]
        if not positive_homogeneity_check(spec, hom_samples):
            return False, f"homogeneity failed for j={j}, n={n}"
    total = 2 * per * len(combos)
    # M2 on (x0, x2, x1, x3) has fourth power equal to the quartic norm
    names = tuple(f"x{i}" for i in range(4))
    x0, x1, x2, x3 = MultiPoly.variables(names)
    spec = IteratedNormSpec(2, 2)
    power = iterated_norm_power(spec, [x0, x2, x1, x3])
    T = tesseranion_algebra()
    closed = quartic_norm4(T.generic_element("x", names))
    symbolic = (power - closed).is_zero
    return symbolic, f"{total} sampled checks; M2 symbolic match={symbolic}"


def criterion_11():
    """Fingerprint separation and the pinned raw-mode regression values.

    Raw Z4 is classified one sign-rescaling orbit at a time, so most of
    its certificates were carried over from another table of the orbit;
    every one is re-checked here against its own candidate.
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
    from .algebra import TwistedAlgebra

    verified = sum(_verify_rejection(c, w) for c, w in rep.rejected)
    for cand, cert in rep.survivors:
        verified += 2 * cert.verify(*det_polynomials(cand.constant))
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
    """Encryption round-trips over Z_257 and key validation."""
    rng = random.Random(SEED + 13)
    p = 257
    done = 0
    rejected = 0
    while done < 1000:
        a = [rng.randrange(p) for _ in range(4)]
        c = [rng.randrange(p) for _ in range(4)]
        try:
            x = encrypt(a, c, p)
        except InvalidKey:
            rejected += 1
            continue
        if decrypt(a, x, p) != tuple(v % p for v in c):
            return False, f"round-trip failed for key {a}"
        done += 1
    try:
        encrypt([4, 1, 0, 0], [1, 2, 3, 4], 257)  # |a|^4 = 16^2 + 1 = 257 = 0
        return False, "invalid key was not rejected"
    except InvalidKey:
        pass
    return True, f"1000 round-trips exact; {rejected} invalid keys rejected on the way"


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
