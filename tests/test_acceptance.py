"""The acceptance gate: every criterion runs at its stated tolerance.

Each criterion is its own test case so a failure pinpoints the broken
claim; the suite prints one pass/fail line per criterion.
"""

import pytest

from twistdiv import identity_families as fam
from twistdiv.acceptance import (
    CRITERIA,
    _is_sum_of_squares,
    _pure_factor_identities,
    _solves,
    criterion_5,
    criterion_9,
)
from twistdiv.algebra import tesseranion_algebra
from twistdiv.deform import family_constant
from twistdiv.norms import IteratedNormSpec, _inverse_numerators, _solution_numerator

T = tesseranion_algebra()


@pytest.mark.parametrize(
    "number,description,fn", CRITERIA, ids=[f"criterion-{n:02d}" for n, _, _ in CRITERIA]
)
def test_acceptance_criterion(number, description, fn, capsys):
    passed, detail = fn()
    with capsys.disabled():
        mark = "PASS" if passed else "FAIL"
        print(f"\n[{mark}] criterion {number:2d}: {description} -- {detail}")
    assert passed, f"criterion {number} ({description}): {detail}"


def test_criterion_9_prints_the_defects_as_numbers():
    """The defects read the way ``twistdiv norms`` prints them, not as reprs."""
    _, detail = criterion_9()
    assert detail.startswith("defects=-16, 0, 8; ")


# Each exact check that replaced a sampled loop refuses a wrong input.


def test_a_family_with_a_flipped_relation_fails_at_a_unit_assignment(monkeypatch):
    monomials, free, conditions = fam.FAMILIES["quintic"]
    name, relation = next(iter(conditions.items()))
    source = next(iter(relation))
    flipped = dict(conditions)
    flipped[name] = {**relation, source: -relation[source]}
    monkeypatch.setitem(fam.FAMILIES, "quintic", (monomials, free, flipped))
    passed, detail = criterion_5()
    assert not passed and detail.startswith("quintic fails at the unit assignment")


def test_inverse_numerators_with_the_sides_swapped_fail():
    """x*RI = |x|^4 = LI*x, read as the two equations of ``_solves``."""
    (x,) = T.generic_elements("x")
    li, ri = _inverse_numerators(x)
    assert _solves(x, T.one(), ri, li)
    assert not _solves(x, T.one(), li, ri)


def test_pure_factor_identities_fail_on_a_deformed_member():
    assert _pure_factor_identities(T)
    assert not _pure_factor_identities(family_constant(1, 2).algebra())


def test_the_level_two_norm_is_no_sum_of_squares():
    assert all(_is_sum_of_squares(IteratedNormSpec(1, n)) for n in range(1, 4))
    assert not _is_sum_of_squares(IteratedNormSpec(2, 1))


def test_solution_numerators_with_the_sides_swapped_fail():
    a, c = T.generic_elements("a", "c")
    left = _solution_numerator(a, c, "left")
    right = _solution_numerator(a, c, "right")
    assert _solves(a, c, left, right)
    assert not _solves(a, c, right, left)
