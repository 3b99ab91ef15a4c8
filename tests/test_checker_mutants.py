"""Mutation gate over the certificate checkers.

Each checker below is rebuilt with one small ``ast`` change at a time: a
comparison flipped between strict and non-strict (or ``==``/``!=``,
``is``/``is not``, ``in``/``not in``), an ``and``/``or`` swapped, a
``not`` dropped, or a ``return`` made to return True.  Every such mutant
must change the answer of some case in ``_cases``, a table of valid and
tampered inputs that calls the checkers directly.  A mutant that no
input can tell from the original is listed in ``EQUIVALENT`` with its
reason; the gate also fails when a listed one is killed or gone.
"""

import ast
import copy
import inspect
import sys
import textwrap
import time
from fractions import Fraction

from importlib import import_module

from twistdiv.groups import LEFT_STANDARD
from twistdiv.poly import MultiPoly, SignChangeWitness, SosCertificate

# the package exports a function ``classify`` that hides the module
classify = import_module("twistdiv.classify")
poly = import_module("twistdiv.poly")
RealRootRejection = classify.RealRootRejection
SurvivorCertificate = classify.SurvivorCertificate

# (module, qualified name) of each checker under the gate
CHECKERS = [
    (poly, "verify_sos"),
    (poly, "certifies_positive_definite"),
    (poly, "_diagonal_support"),
    (poly, "_even_sign"),
    (poly, "SignChangeWitness.verify"),
    (classify, "RealRootRejection.verify"),
    (classify, "SurvivorCertificate.verify"),
    (classify, "verify_verdict"),
    (classify, "_restrict_to_line"),
]

# Mutants that no input can tell from the original, each with the reason.
EQUIVALENT = {
    "RealRootRejection.verify: lo < hi -> lo <= hi": "a count over the "
    "empty interval (lo, lo] is 0, so `root_count >= 1` already fails",
    "_even_sign: c > 0 -> c >= 0": "a normalised MultiPoly stores no zero "
    "coefficient, so c is never 0",
}

_FLIP = {
    ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq, ast.NotEq: ast.Eq, ast.Is: ast.IsNot,
    ast.IsNot: ast.Is, ast.In: ast.NotIn, ast.NotIn: ast.In,
}


def _source_tree(module, qualname):
    obj = module
    for part in qualname.split("."):
        obj = vars(obj)[part] if isinstance(obj, type) else getattr(obj, part)
    tree = ast.parse(textwrap.dedent(inspect.getsource(obj)))
    return obj, tree


def _sites(tree):
    """(node index in ``ast.walk`` order, operand index) of each mutation."""
    sites = []
    for i, node in enumerate(ast.walk(tree)):
        if isinstance(node, ast.Compare):
            sites += [(i, j) for j, op in enumerate(node.ops) if type(op) in _FLIP]
        elif isinstance(node, ast.BoolOp) or (
            isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Not)
        ):
            sites.append((i, None))
        elif isinstance(node, ast.Return) and not (
            isinstance(node.value, ast.Constant) and node.value.value is True
        ):
            sites.append((i, None))
    return sites


def _mutate(tree, site):
    """A mutated copy of ``tree`` and its label ``before -> after``."""
    tree = copy.deepcopy(tree)
    index, op_index = site
    nodes = list(ast.walk(tree))
    node = nodes[index]
    before = ast.unparse(node)
    if isinstance(node, ast.Compare):
        node.ops[op_index] = _FLIP[type(node.ops[op_index])]()
        after = ast.unparse(node)
    elif isinstance(node, ast.BoolOp):
        node.op = ast.Or() if isinstance(node.op, ast.And) else ast.And()
        after = ast.unparse(node)
    elif isinstance(node, ast.Return):
        node.value = ast.Constant(True)
        after = ast.unparse(node)
    else:  # a dropped ``not``: the operand takes the node's place
        parent = next(p for p in nodes if node in ast.iter_child_nodes(p))
        for field, value in ast.iter_fields(parent):
            if value is node:
                setattr(parent, field, node.operand)
            elif isinstance(value, list) and node in value:
                value[value.index(node)] = node.operand
        after = ast.unparse(node.operand)
    return ast.fix_missing_locations(tree), f"{before} -> {after}"


def _mutants():
    """(label, module, qualname, original, mutant function) per mutant."""
    out = []
    for module, qualname in CHECKERS:
        original, tree = _source_tree(module, qualname)
        (fdef,) = tree.body
        fdef.decorator_list = []
        seen = {}
        for site in _sites(tree):
            mutated, change = _mutate(tree, site)
            label = f"{qualname}: {change}"
            seen[label] = seen.get(label, 0) + 1
            if seen[label] > 1:
                label += f" (#{seen[label]})"
            namespace = dict(vars(module))
            exec(compile(mutated, f"<mutant {label}>", "exec"), namespace)
            out.append((label, module, qualname, original, namespace[fdef.name]))
    return out


def _swap(module, qualname, old, new):
    """Put ``new`` wherever the package holds ``old``."""
    if "." in qualname:
        owner, name = qualname.split(".")
        setattr(getattr(module, owner), name, new)
        return
    for name, mod in list(sys.modules.items()):
        if name != "twistdiv" and not name.startswith("twistdiv."):
            continue
        if vars(mod).get(qualname) is old:
            setattr(mod, qualname, new)


# -- the case table -----------------------------------------------------


def _cases():
    """(name, owner, checker, arguments, expected answer) for valid and
    tampered inputs.  Every determinant and certificate is built here,
    before any mutant runs; a case reads ``checker`` off ``owner`` when it
    runs, so that it meets the mutant in place."""
    y0, y1 = MultiPoly.variables(("y0", "y1"))
    (z0,) = MultiPoly.variables(("z0",))
    sq = y0 * y0 + y1 * y1
    saddle = y0 * y0 - y1 * y1
    one = Fraction(1)
    cert = SosCertificate(((one, y0), (one, y1)))
    empty = SosCertificate(())

    def sign(positive, nonpositive, positive_value, nonpositive_value):
        return SignChangeWitness(
            positive, nonpositive, Fraction(positive_value), Fraction(nonpositive_value)
        )

    report = classify.classify("Z4", LEFT_STANDARD, classify.SHAPED)
    root_cand, root = next(
        (c, w) for c, w in report.rejected if isinstance(w, RealRootRejection)
    )
    sign_cand, sign_w = report.rejected[0]
    survivor_cand, survivor = report.survivors[0]
    det = classify._det_expanded(root_cand.constant)
    dets = (
        classify._det_expanded(survivor_cand.constant),
        classify._det_expanded(survivor_cand.constant, False),
    )
    lo, hi = root.interval
    changed = root.coefficients[:-1] + (root.coefficients[-1] + 1,)

    def root_with(position=root.position, coefficients=root.coefficients,
                  interval=root.interval, root_count=root.root_count):
        return RealRootRejection(
            position, root.base, coefficients, interval, root_count
        )

    def psd(left, right):
        return SurvivorCertificate(survivor.kind, left, right)

    odd = SurvivorCertificate("odd-dimension-unit", None, None)
    P, C = poly, classify
    return [
        ("sos valid", P, "verify_sos", (sq, cert), True),
        ("sos empty of zero", P, "verify_sos", (MultiPoly.zero(sq.vars), empty), True),
        ("sos empty of nonzero", P, "verify_sos", (sq, empty), False),
        ("sos zero weight", P, "verify_sos",
         (y1 * y1, SosCertificate(((Fraction(0), y0), (one, y1)))), False),
        ("sos foreign base", P, "verify_sos",
         (z0 * z0, SosCertificate(((one, y0),))), False),
        ("sos wrong sum", P, "verify_sos", (sq + sq, cert), False),
        ("even positive", P, "_even_sign", (list(sq.terms.items()),), 1),
        ("even negative", P, "_even_sign", (list((-sq).terms.items()),), -1),
        ("even empty", P, "_even_sign", ([],), 0),
        ("even mixed", P, "_even_sign", (list(saddle.terms.items()),), None),
        ("even odd exponent", P, "_even_sign",
         (list((y0 + y1 * y1).terms.items()),), None),
        ("support diagonal", P, "_diagonal_support", (sq,), {0, 1}),
        ("support single odd", P, "_diagonal_support", (y0,), {0}),
        ("support cross term", P, "_diagonal_support", (y0 * y1,), None),
        ("support mixed", P, "_diagonal_support", (saddle,), None),
        ("pd valid", P, "certifies_positive_definite", (sq, cert), True),
        ("pd failed sos", P, "certifies_positive_definite", (sq + sq, cert), False),
        ("pd uncovered", P, "certifies_positive_definite",
         ((y0 + y1) * (y0 + y1), SosCertificate(((one, y0 + y1),))), False),
        ("sign valid", sign((1, 0), (0, 1), 1, -1), "verify", (saddle.evaluate,), True),
        ("sign nonpositive zero", sign((1, 0), (1, 1), 1, 0), "verify",
         (saddle.evaluate,), True),
        ("sign at origin", sign((1, 0), (0, 0), 1, 0), "verify",
         (saddle.evaluate,), False),
        ("sign positive zero", sign((1, 1), (0, 1), 0, -1), "verify",
         (saddle.evaluate,), False),
        ("sign positive misread", sign((1, 0), (0, 1), 2, -1), "verify",
         (saddle.evaluate,), False),
        ("sign nonpositive misread", sign((1, 0), (0, 1), 1, -2), "verify",
         (saddle.evaluate,), False),
        ("sign both positive", sign((1, 0), (2, 0), 1, 4), "verify",
         (saddle.evaluate,), False),
        ("root valid", root, "verify", (det,), True),
        ("root bad position", root_with(position=len(det.vars)), "verify",
         (det,), False),
        ("root changed coefficients", root_with(coefficients=changed), "verify",
         (det,), False),
        ("root zero restriction", RealRootRejection(0, (1,), (0,), (-1, 1), 1),
         "verify", (MultiPoly.zero(sq.vars),), False),
        ("root reversed interval", root_with(interval=(hi, lo)), "verify",
         (det,), False),
        ("root count 0", root_with(root_count=0), "verify", (det,), False),
        ("root count 2", root_with(root_count=2), "verify", (det,), False),
        ("survivor valid", survivor, "verify", dets, True),
        ("survivor bad left", psd(survivor.cert_right, survivor.cert_right), "verify",
         dets, False),
        ("survivor bad right", psd(survivor.cert_left, survivor.cert_left), "verify",
         dets, False),
        ("unit valid", odd, "verify", (z0, z0 * z0 * 3), True),
        ("unit two variables", odd, "verify", (y0, z0), False),
        ("unit two terms", odd, "verify", (z0, z0 + z0 * z0), False),
        ("unit constant", odd, "verify", (z0, MultiPoly.constant(z0.vars, 1)), False),
        ("verdict sign", C, "verify_verdict", (sign_cand.constant, sign_w), True),
        ("verdict root", C, "verify_verdict", (root_cand.constant, root), True),
        ("verdict survivor", C, "verify_verdict",
         (survivor_cand.constant, survivor), True),
        ("verdict sign elsewhere", C, "verify_verdict",
         (survivor_cand.constant, sign_w), False),
        ("verdict root elsewhere", C, "verify_verdict",
         (survivor_cand.constant, root), False),
        ("verdict survivor elsewhere", C, "verify_verdict",
         (sign_cand.constant, survivor), False),
        ("verdict none", C, "verify_verdict", (sign_cand.constant, None), False),
        ("line valid", C, "_restrict_to_line", (sq, 0, (2,)), [4, 0, 1]),
        ("line position 1", C, "_restrict_to_line", (sq, 1, (2,)), [4, 0, 1]),
        ("line saddle", C, "_restrict_to_line", (saddle, 1, (1,)), [1, 0, -1]),
        ("line negative position", C, "_restrict_to_line", (sq, -1, (2,)), None),
        ("line position past the end", C, "_restrict_to_line", (sq, 2, (2,)), None),
        ("line short base", C, "_restrict_to_line", (sq, 0, ()), None),
        ("line zero base", C, "_restrict_to_line", (sq, 0, (0,)), None),
    ]


def _answer(owner, checker, args):
    try:
        return ("value", getattr(owner, checker)(*args))
    except Exception as exc:  # a mutant that raises has changed the answer
        return ("raised", type(exc).__name__)


def test_the_cases_hold_on_the_checkers_as_they_are():
    for name, owner, checker, args, expected in _cases():
        assert getattr(owner, checker)(*args) == expected, name


def test_every_checker_mutant_changes_some_answer(capsys):
    t0 = time.perf_counter()
    cases = _cases()
    mutants = _mutants()
    survivors = set()
    for label, module, qualname, original, mutant in mutants:
        for _, owner, checker, args, expected in cases:
            _swap(module, qualname, original, mutant)
            try:
                answer = _answer(owner, checker, args)
            finally:
                _swap(module, qualname, mutant, original)
            if answer != ("value", expected):
                break
        else:
            survivors.add(label)
    with capsys.disabled():
        print(
            f"\nmutation gate: {len(mutants)} mutants of {len(CHECKERS)} checkers, "
            f"{len(mutants) - len(survivors)} killed by {len(cases)} cases, "
            f"{len(survivors)} equivalent ({time.perf_counter() - t0:.2f}s)"
        )
    assert survivors == set(EQUIVALENT), sorted(survivors ^ set(EQUIVALENT))


def test_the_gate_sees_a_mutant_of_each_kind():
    tree = ast.parse(
        "def f(a, b):\n    if not a or b < 1:\n        return None\n    return a == b\n"
    )
    labels = {_mutate(tree, site)[1] for site in _sites(tree)}
    assert labels == {
        "not a or b < 1 -> not a and b < 1",
        "not a -> a",
        "b < 1 -> b <= 1",
        "return None -> return True",
        "return a == b -> return True",
        "a == b -> a != b",
    }
