"""The acceptance gate: every criterion runs at its stated tolerance.

Each criterion is its own test case so a failure pinpoints the broken
claim; the suite prints one pass/fail line per criterion.
"""

import pytest

from twistdiv.acceptance import CRITERIA, criterion_9


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
