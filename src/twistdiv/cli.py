"""Command-line front end.

Subcommands: classify, cohomology, identities, analyze, norms, deform,
encrypt, accept.  Reports are JSON with a deterministic key order
(``classify --format md`` prints markdown instead); exit status is 0 on
success, 1 when a requested check fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import cohomology as coh
from .acceptance import run_acceptance
from .algebra import TwistedAlgebra, algebra_by_name
from .classify import (
    RAW,
    SHAPED,
    classify,
    non_isomorphism_fingerprint,
)
from .deform import (
    commutator_rescaling,
    family_constant,
    k_inverse_isomorphism,
    neccons_check,
    witness_search,
)
from .groups import LEFT_STANDARD, RIGHT_STANDARD
from .identities import identity_space, loop_property_suite
from .norms import (
    InvalidKey,
    decrypt,
    encrypt,
    pure_factor_defects,
    schwarz_table,
    triangle_sweep,
)
from .structure import (
    DERIVED,
    LOWER_CENTRAL,
    anticommutator_algebra,
    chiral_inverse_check,
    commutator_algebra,
    heisenberg_ideal_check,
    jacobi_check,
    jordan_check,
    series,
)

DEFAULT_SEED = 12345

ANALYZE_REPORTS = ("lie", "jordan", "series", "inverses", "properties", "fingerprint")
DEFORM_CHECKS = ("neccons", "witness", "inverse-iso", "commutator")


def _emit(data):
    print(json.dumps(data, indent=2, sort_keys=True, default=str))


def _names(text, known, option):
    """The comma-separated names of ``option``; ValueError on an unknown one."""
    names = text.split(",")
    unknown = [n for n in names if n not in known]
    if unknown:
        raise ValueError(f"unknown {option} name(s): {', '.join(unknown)}")
    return names


def _load_algebra(selector):
    if os.path.exists(selector):
        with open(selector) as fh:
            return TwistedAlgebra.from_json(json.load(fh))
    return algebra_by_name(selector)


def _parse_components(text, n=4):
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != n:
        raise ValueError(f"expected {n} comma-separated components, got {len(parts)}")
    return [int(p) for p in parts]


def cmd_classify(args):
    convention = LEFT_STANDARD if args.basis == "left" else RIGHT_STANDARD
    mode = SHAPED if args.mode == "shaped" else RAW
    report = classify(args.group, convention, mode)
    data = {
        "group": report.group_name,
        "basis": report.convention,
        "mode": report.mode,
        "counts": report.counts(),
        "survivors": [
            {
                "C": [list(r) for r in cand.constant.values],
                "parameters": dict(cand.parameters),
                "certificate_kind": cert.kind,
            }
            for cand, cert in report.survivors
        ],
        "rejected": [
            {
                "C": [list(r) for r in cand.constant.values],
                "parameters": dict(cand.parameters),
                "witness": w.to_json(),
            }
            for cand, w in report.rejected
        ],
        "undetermined": [
            {"C": [list(r) for r in cand.constant.values]}
            for cand in report.undetermined
        ],
    }

    def md(data):
        lines = [
            f"## Classification: {data['group']} ({data['basis']}, {data['mode']})",
            "",
            f"candidates examined: {data['counts']['examined']}, "
            f"rejected: {data['counts']['rejected']}, "
            f"survivors: {data['counts']['survivors']}, "
            f"undetermined: {data['counts']['undetermined']}",
            "",
        ]
        for cand, cert in report.survivors:
            lines.append(cand.constant.markdown_table("C"))
            lines.append("")
        return "\n".join(lines)

    if args.format == "md":
        print(md(data))
    else:
        _emit(data)
    return 0 if not report.undetermined else 1


def cmd_cohomology(args):
    algebra = _load_algebra(args.algebra)
    constant = algebra.constant
    r = coh.r_function(constant)
    data = {"algebra": args.algebra, "group": constant.group.name}
    q = kappa = None
    if constant.group.is_abelian():
        q = coh.q_function(constant)
        kappa = coh.find_coboundary_kappa(q, constant.group)
    if args.show in (None, "r"):
        data["r"] = r.table
    if args.show in (None, "q") and q is not None:
        data["q"] = q.table
    if args.show in (None, "kappa") and kappa is not None:
        data["kappa"] = kappa.table
    failures = 0
    if args.check:
        if q is None:
            raise ValueError("checks on q require an abelian grading group")
        results = {}
        if "cocycle" in args.check:
            results["cocycle"] = coh.is_2cocycle(q, constant.group)
        if "coboundary" in args.check:
            results["coboundary"] = kappa is not None
        if "separable" in args.check:
            sep = coh.is_separable(q, constant.group)
            results["separable"] = sep
            if not sep:
                results["violating_triple"] = coh.separability_violation(
                    q, constant.group
                )
        data["checks"] = results
        failures = sum(1 for v in results.values() if v is False)
    _emit(data)
    return 0 if failures == 0 or not args.fail_on_false else 1


def cmd_identities(args):
    algebra = _load_algebra(args.algebra)
    pattern = tuple(int(p) for p in args.pattern.split(","))
    space = identity_space(algebra, pattern)
    data = {
        "algebra": args.algebra,
        "pattern": list(space.pattern),
        "monomials": len(space.monomials),
        "dimension": space.dimension,
    }
    if args.emit:
        payload = space.to_json()
        payload["basis_by_monomial"] = [
            {
                tree.serialize(): str(Fraction(vec[i]))
                for i, tree in enumerate(space.monomials)
            }
            for vec in space.nullspace_basis
        ]
        with open(args.emit, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
        data["emitted"] = args.emit
    _emit(data)
    return 0


def cmd_analyze(args):
    algebra = _load_algebra(args.algebra)
    wanted = _names(args.report, ANALYZE_REPORTS, "--report")
    data = {"algebra": args.algebra}
    if "lie" in wanted:
        Lm = commutator_algebra(algebra)
        holds, ce = jacobi_check(Lm)
        data["lie"] = {"jacobi": holds, "counterexample": ce}
        if algebra.group.order == 4:
            data["lie"]["heisenberg_ideal"] = heisenberg_ideal_check(Lm)
    if "jordan" in wanted:
        Jp = anticommutator_algebra(algebra)
        holds, ce = jordan_check(Jp)
        data["jordan"] = {"holds": holds, "counterexample": ce}
    if "series" in wanted:
        from .algebra import TABLE_TESSERANION
        from .structure import Z4_COMMUTATOR_CLASSIFICATION

        Lm = commutator_algebra(algebra)
        der = series(Lm, DERIVED)
        low = series(Lm, LOWER_CENTRAL)
        data["series"] = {
            "derived_dimensions": der.dimensions,
            "solvable": der.solvable,
            "lower_central_dimensions": low.dimensions,
            "nilpotent": low.nilpotent,
            "stabilizes": low.stabilizes,
        }
        if algebra.constant.values == TABLE_TESSERANION:
            data["series"]["catalogue"] = Z4_COMMUTATOR_CLASSIFICATION
    if "inverses" in wanted:
        kind, witness = chiral_inverse_check(algebra)
        data["inverses"] = {
            "kind": kind,
            "witness": list(witness.coeffs) if witness is not None else None,
        }
    if "properties" in wanted:
        data["properties"] = loop_property_suite(algebra).to_json()
    if "fingerprint" in wanted:
        data["fingerprint"] = non_isomorphism_fingerprint(algebra).to_json()
    _emit(data)
    return 0


def cmd_norms(args):
    import random

    rng = random.Random(args.seed)
    algebra = algebra_by_name("tes")
    data = {"seed": args.seed}
    if args.check == "schwarz":
        data["fourth_power_defects"] = {
            pair: str(v) for pair, v in schwarz_table(algebra).items()
        }
        failures = pure_factor_defects(algebra, rng, args.samples)
        data["pure_factor_nonzero_defects"] = failures
    else:
        data["triangle"] = triangle_sweep(rng, args.samples)
        failures = list(data["triangle"].values()).count(False)
    _emit(data)
    return 0 if failures == 0 else 1


def cmd_deform(args):
    try:
        k = Fraction(args.k)
    except ZeroDivisionError:
        raise ValueError(f"--k {args.k} has a zero denominator") from None
    member = family_constant(args.family, k)
    checks = _names(args.checks, DEFORM_CHECKS, "--checks")
    data = {
        "family": args.family,
        "k": str(k),
        "parameters": {n: str(v) for n, v in member.parameters},
        "in_range": member.in_range,
    }
    failures = 0
    if "neccons" in checks:
        ok, violated = neccons_check(member.parameter_map)
        data["neccons"] = {"pass": ok, "violated": violated}
        failures += 0 if ok else 1
    if "witness" in checks:
        witness = witness_search(member.constant())
        data["witness_search"] = (
            {"found": False, "note": "no zero divisor found (not a positivity proof)"}
            if witness is None
            else {"found": True, **witness.to_json()}
        )
        failures += 1 if witness is not None and member.in_range else 0
    if "inverse-iso" in checks:
        try:
            data["k_inverse_isomorphism"] = k_inverse_isomorphism(k)
        except ValueError as exc:
            data["k_inverse_isomorphism"] = f"skipped: {exc}"
    if "commutator" in checks:
        possible, matched = commutator_rescaling(k)
        data["commutator_rescaling"] = {
            "rational_rescaling_exists": possible,
            "brackets_match": matched,
        }
    _emit(data)
    return 0 if failures == 0 else 1


def cmd_encrypt(args):
    key = _parse_components(args.key)
    msg = _parse_components(args.msg)
    side = "right" if args.right else "left"
    try:
        if args.decrypt:
            out = decrypt(key, msg, args.p, side=side)
        else:
            out = encrypt(key, msg, args.p, side=side)
    except InvalidKey as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(",".join(str(v) for v in out))
    return 0


def cmd_accept(args):
    numbers = None
    if args.only is not None:
        numbers = {int(x) for x in args.only.split(",")}
    results = run_acceptance(numbers)
    all_ok = True
    for r in results:
        mark = "PASS" if r.passed else "FAIL"
        print(f"[{mark}] criterion {r.number:>2}: {r.description} ({r.seconds:.2f}s)")
        print(f"       {r.detail}")
        all_ok = all_ok and r.passed
    print(f"{sum(r.passed for r in results)}/{len(results)} criteria passed")
    return 0 if all_ok else 1


def build_parser():
    parser = argparse.ArgumentParser(
        prog="twistdiv",
        description="exact classification and analysis of sign-twisted group algebras",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="enumerate and classify structure constants")
    p.add_argument("--group", required=True, choices=["Z1", "Z2", "Z4", "Z2xZ2"])
    p.add_argument("--basis", default="left", choices=["left", "right"])
    p.add_argument("--mode", default="shaped", choices=["shaped", "raw"])
    p.add_argument("--format", default="json", choices=["json", "md"])
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("cohomology", help="r/q/kappa functions and their properties")
    p.add_argument("--algebra", required=True)
    p.add_argument("--show", choices=["r", "q", "kappa"])
    p.add_argument("--check", action="append",
                   choices=["cocycle", "coboundary", "separable"], default=[])
    p.add_argument("--fail-on-false", action="store_true")
    p.set_defaults(func=cmd_cohomology)

    p = sub.add_parser("identities", help="identity spaces of bracketed monomials")
    p.add_argument("--algebra", required=True)
    p.add_argument("--pattern", required=True,
                   help="per-variable degrees, e.g. 2,2 or 6")
    p.add_argument("--emit", help="write the nullspace basis to a JSON file")
    p.set_defaults(func=cmd_identities)

    p = sub.add_parser("analyze", help="commutator/anticommutator structure")
    p.add_argument("--algebra", required=True)
    p.add_argument("--report", default="lie,jordan,series,inverses",
                   help="comma list: " + ",".join(ANALYZE_REPORTS))
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("norms", help="Schwarz defects and iterated norms")
    p.add_argument("--check", required=True, choices=["schwarz", "triangle"])
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.set_defaults(func=cmd_norms)

    p = sub.add_parser("deform", help="one-parameter deformation families")
    p.add_argument("--family", type=int, required=True, choices=range(1, 9))
    p.add_argument("--k", required=True, help="rational, e.g. 4 or 1/2")
    p.add_argument("--checks", default="neccons,witness",
                   help="comma list: " + ",".join(DEFORM_CHECKS))
    p.set_defaults(func=cmd_deform)

    p = sub.add_parser("encrypt", help="mod-p linear-equation encryption")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--key", required=True, help="a0,a1,a2,a3")
    p.add_argument("--msg", required=True, help="c0,c1,c2,c3")
    p.add_argument("--right", action="store_true", help="use the y*b = d form")
    p.add_argument("--decrypt", action="store_true",
                   help="treat --msg as the encoded word and recover the message")
    p.set_defaults(func=cmd_encrypt)

    p = sub.add_parser("accept", help="run the acceptance suite")
    p.add_argument("--only", help="comma list of criterion numbers")
    p.set_defaults(func=cmd_accept)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # malformed input: unknown selector or name, bad JSON or table, bad
        # parameter, or a path that cannot be read or written
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
