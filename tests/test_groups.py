import pytest

from twistdiv.groups import (
    GROUP_NAMES,
    LEFT_STANDARD,
    RIGHT_STANDARD,
    group_by_name,
    standard_basis_words,
    word_element,
)

ALL_NAMES = GROUP_NAMES + ("Z1", "Z3", "Z6")


@pytest.mark.parametrize("name", ALL_NAMES)
def test_cayley_tables_are_groups(name):
    """Construction validates identity, inverses and full associativity."""
    G = group_by_name(name)
    n = G.order
    assert G.cayley[0] == tuple(range(n))
    for a in range(n):
        for b in range(n):
            ab = G.mul(a, b)
            for c in range(n):
                assert G.mul(ab, c) == G.mul(a, G.mul(b, c))
    for g in range(n):
        assert G.mul(g, G.inverse(g)) == 0


def test_multiply_examples():
    Z4 = group_by_name("Z4")
    assert Z4.mul(1, 1) == 2
    K = group_by_name("Z2xZ2")
    # (1,0) has index 1, (0,1) index 2, (1,1) index 3
    assert K.mul(1, 2) == 3
    for name in ("Z2", "Z4", "Z2xZ2", "Q8", "D4"):
        G = group_by_name(name)
        for g in range(G.order):
            assert G.mul(0, g) == g


def test_multiply_index_error():
    Z4 = group_by_name("Z4")
    with pytest.raises(IndexError):
        Z4.mul(4, 0)


def test_unknown_group_name():
    with pytest.raises(ValueError):
        group_by_name("Z5")


def test_generator_orders_non_increasing():
    for name in ALL_NAMES:
        G = group_by_name(name)
        orders = [G.element_order(g) for g in G.generators]
        assert orders == sorted(orders, reverse=True)


def test_klein_standard_bases_match_expected_words():
    """Right-standard ends with g1*g2, left-standard with g2*g1."""
    K = group_by_name("Z2xZ2")
    right = standard_basis_words(K, RIGHT_STANDARD)
    left = standard_basis_words(K, LEFT_STANDARD)
    assert [w.exponents for w in right] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [w.exponents for w in left] == [(0, 0), (1, 0), (0, 1), (1, 1)]
    assert [word_element(K, w) for w in right] == [0, 1, 2, 3]
    assert [word_element(K, w) for w in left] == [0, 1, 2, 3]


def test_z4_left_standard_words():
    Z4 = group_by_name("Z4")
    words = standard_basis_words(Z4, LEFT_STANDARD)
    assert [w.exponents for w in words] == [(0,), (1,), (2,), (3,)]
    assert [word_element(Z4, w) for w in words] == [0, 1, 2, 3]
    assert [w.is_identity() for w in words] == [True, False, False, False]


@pytest.mark.parametrize("name", ALL_NAMES)
@pytest.mark.parametrize("convention", [LEFT_STANDARD, RIGHT_STANDARD])
def test_words_enumerate_group(name, convention):
    G = group_by_name(name)
    words = standard_basis_words(G, convention)
    elements = [word_element(G, w) for w in words]
    assert len(words) == G.order
    assert sorted(elements) == list(range(G.order))
    assert elements[0] == 0


def test_abelian_conventions_reach_same_elements():
    for name in ("Z2", "Z4", "Z2xZ2", "Z2xZ2xZ2", "Z2xZ4", "Z8"):
        G = group_by_name(name)
        left = {word_element(G, w) for w in standard_basis_words(G, LEFT_STANDARD)}
        right = {word_element(G, w) for w in standard_basis_words(G, RIGHT_STANDARD)}
        assert left == right == set(range(G.order))


def test_quaternion_group_exponent_ranges():
    """Q8 words use s1 < 4, s2 < 2 although both generators have order 4."""
    Q = group_by_name("Q8")
    assert Q.exponent_ranges == (4, 2)
    assert [Q.element_order(g) for g in Q.generators] == [4, 4]
    words = standard_basis_words(Q, LEFT_STANDARD)
    assert len(words) == 8
    assert len({word_element(Q, w) for w in words}) == 8


def test_dihedral_relations():
    D = group_by_name("D4")
    r, s = D.generators
    assert D.element_order(r) == 4 and D.element_order(s) == 2
    # s r s^-1 = r^-1
    conj = D.mul(D.mul(s, r), D.inverse(s))
    assert conj == D.inverse(r)


def test_bad_convention_rejected():
    with pytest.raises(ValueError):
        standard_basis_words(group_by_name("Z4"), "sideways")
