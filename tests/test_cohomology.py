import pytest

from twistdiv import cohomology as coh
from twistdiv.algebra import (
    complex_algebra,
    quaternion_algebra,
    tesseranion_algebra,
)

T = tesseranion_algebra()
H = quaternion_algebra()
C = complex_algebra()
R4 = range(4)


def associativity_defect_verified(algebra):
    """Check v_a (v_b v_c) = r(a,b,c) (v_a v_b) v_c with actual products."""
    r = coh.r_function(algebra.constant)
    n = algebra.group.order
    for a in range(n):
        va = algebra.basis_element(a)
        for b in range(n):
            vb = algebra.basis_element(b)
            for c in range(n):
                vc = algebra.basis_element(c)
                if va * (vb * vc) != r(a, b, c) * ((va * vb) * vc):
                    return False
    return True


def commutativity_defect_verified(algebra, q):
    """Check v_a v_b = q(a,b) v_b v_a with actual products."""
    n = algebra.group.order
    for a in range(n):
        for b in range(n):
            va, vb = algebra.basis_element(a), algebra.basis_element(b)
            if va * vb != q(a, b) * (vb * va):
                return False
    return True


def test_r_function_values():
    rT = coh.r_function(T.constant)
    assert rT(1, 1, 1) == -1
    rH = coh.r_function(H.constant)
    assert all(rH(a, b, c) == 1 for a in R4 for b in R4 for c in R4)
    rC = coh.r_function(C.constant)
    assert all(rC(a, b, c) == 1 for a in range(2) for b in range(2) for c in range(2))


def test_triple_product_relation_holds_via_products():
    """v_a (v_b v_c) = r(a,b,c) (v_a v_b) v_c, checked with actual products."""
    for A in (C, H, T):
        assert associativity_defect_verified(A)


def test_defect_relations_hold_for_random_sign_constants():
    """r and q satisfy their defining product relations for arbitrary
    unital sign arrays, not just the survivors."""
    import random

    from twistdiv.algebra import StructureConstant, TwistedAlgebra
    from twistdiv.groups import LEFT_STANDARD, group_by_name

    rng = random.Random(60)
    G = group_by_name("Z4")
    for _ in range(8):
        values = [[1] * 4] + [
            [1] + [rng.choice((1, -1)) for _ in range(3)] for _ in range(3)
        ]
        A = TwistedAlgebra(StructureConstant(G, values, LEFT_STANDARD))
        assert associativity_defect_verified(A)
        assert commutativity_defect_verified(A, coh.q_function(A.constant))


def test_q_function_values_and_relation():
    qT = coh.q_function(T.constant)
    assert qT(1, 2) == -1
    assert commutativity_defect_verified(T, qT)
    qH = coh.q_function(H.constant)
    assert commutativity_defect_verified(H, qH)
    qC = coh.q_function(C.constant)
    assert all(qC(a, b) == 1 for a in range(2) for b in range(2))


def test_q_requires_abelian_group():
    from twistdiv.algebra import StructureConstant
    from twistdiv.groups import LEFT_STANDARD, group_by_name

    D = group_by_name("D4")
    constant = StructureConstant(D, [[1] * 8 for _ in range(8)], LEFT_STANDARD)
    with pytest.raises(ValueError):
        coh.q_function(constant)


def test_cocycle_checks():
    qT = coh.q_function(T.constant)
    qH = coh.q_function(H.constant)
    assert coh.is_2cocycle(qT, T.group)
    assert coh.is_2cocycle(qH, H.group)
    trivial = coh.SignTable(tuple(tuple(1 for _ in R4) for _ in R4), 2)
    assert coh.is_2cocycle(trivial, T.group)
    assert coh.is_separable(trivial, T.group)


def test_separability():
    qH = coh.q_function(H.constant)
    qT = coh.q_function(T.constant)
    assert coh.is_separable(qH, H.group)
    assert not coh.is_separable(qT, T.group)
    g, h, t = coh.separability_violation(qT, T.group)
    assert qT(h, t) * qT(g, t) != qT(T.group.mul(g, h), t)


def test_coboundary_search():
    qT = coh.q_function(T.constant)
    qH = coh.q_function(H.constant)
    kT = coh.find_coboundary_kappa(qT, T.group)
    kH = coh.find_coboundary_kappa(qH, H.group)
    assert kT is not None and kT(0) == 1
    assert kH is not None and kH(0) == 1
    assert coh.is_coboundary_witness(qT, T.group, kT)
    assert coh.is_coboundary_witness(qH, H.group, kH)
    trivial = coh.SignTable(tuple(tuple(1 for _ in R4) for _ in R4), 2)
    k1 = coh.find_coboundary_kappa(trivial, T.group)
    assert k1.table == (1, 1, 1, 1)


def test_closed_forms_match_tables():
    rT, qT = coh.r_function(T.constant), coh.q_function(T.constant)
    rH, qH = coh.r_function(H.constant), coh.q_function(H.constant)
    pairs = coh.klein_pairs(H.group)
    assert all(coh.c_tes_closed(n, m) == T.constant(n, m) for n in R4 for m in R4)
    assert all(coh.q_tes_closed(n, m) == qT(n, m) for n in R4 for m in R4)
    assert all(
        coh.r_tes_closed(n, m, h) == rT(n, m, h) for n in R4 for m in R4 for h in R4
    )
    assert all(
        coh.c_quat_closed(pairs[a], pairs[b]) == H.constant(a, b)
        for a in R4 for b in R4
    )
    assert all(
        coh.q_quat_closed(pairs[a], pairs[b]) == qH(a, b) for a in R4 for b in R4
    )
    # H is associative: its closed-form r is 1
    assert all(rH(a, b, c) == 1 for a in R4 for b in R4 for c in R4)


def test_closed_form_kappas_are_witnesses():
    qT = coh.q_function(T.constant)
    qH = coh.q_function(H.constant)
    pairs = coh.klein_pairs(H.group)
    assert coh.is_coboundary_witness(qT, T.group, coh.kappa_tes_closed)
    assert coh.is_coboundary_witness(
        qH, H.group, lambda a: coh.kappa_quat_closed(pairs[a])
    )
    assert coh.kappa_tes_closed(0) == 1
    assert [coh.kappa_tes_closed(n) for n in R4] == [1, -1, 1, 1]


def test_klein_pairs_reject_other_groups():
    with pytest.raises(ValueError, match="Z2xZ2"):
        coh.klein_pairs(T.group)


def test_parity_guard():
    with pytest.raises(ArithmeticError):
        coh._parity_sign(3, 2)


def test_cocycle_implies_palindromic_r_relation():
    """q a 2-cocycle forces r(a,b,c) r(c,b,a) = 1 on all triples."""
    for A in (H, T):
        r = coh.r_function(A.constant)
        q = coh.q_function(A.constant)
        assert coh.is_2cocycle(q, A.group)
        n = A.group.order
        assert all(
            r(a, b, c) * r(c, b, a) == 1
            for a in range(n) for b in range(n) for c in range(n)
        )


def test_separable_implies_cocycle_for_all_shaped_candidates():
    """Every separable q arising from an in-scope constant is a 2-cocycle."""
    from twistdiv.classify import SHAPED, enumerate_candidates
    from twistdiv.groups import LEFT_STANDARD, RIGHT_STANDARD

    for name, convention in [("Z2", LEFT_STANDARD), ("Z2xZ2", RIGHT_STANDARD),
                             ("Z4", LEFT_STANDARD)]:
        for cand in enumerate_candidates(name, convention, SHAPED):
            q = coh.q_function(cand.constant)
            if coh.is_separable(q, cand.constant.group):
                assert coh.is_2cocycle(q, cand.constant.group)


def test_separable_q_gives_jacobi_like_r_identity():
    rH = coh.r_function(H.constant)
    assert all(
        rH(a, b, c) * rH(c, a, b) * rH(b, c, a) == 1
        for a in R4 for b in R4 for c in R4
    )
    # and the non-separable case breaks it somewhere
    rT = coh.r_function(T.constant)
    assert any(
        rT(a, b, c) * rT(c, a, b) * rT(b, c, a) != 1
        for a in R4 for b in R4 for c in R4
    )
