import hashlib
import json
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from twistdiv import identity_families as fam
from twistdiv.algebra import (
    complex_algebra,
    quaternion_algebra,
    tensor_product,
    tesseranion_algebra,
)
from twistdiv.deform import family_constant, structure_constant_from_generator
from twistdiv.identities import (
    Expander,
    L,
    N,
    Leaf,
    Node,
    VARIABLE_NAMES,
    counterexample,
    enumerate_monomials,
    identity_residual,
    identity_space,
    loop_property_suite,
    verify_conjugate_identities,
    verify_identity,
)
from twistdiv.poly import MultiPoly
from twistdiv.structure import commutator_algebra

T = tesseranion_algebra()


@pytest.mark.parametrize(
    "pattern,count",
    [((5,), 14), ((6,), 42), ((2, 1), 6), ((2, 2), 30), ((3, 1), 20), ((4,), 5)],
)
def test_monomial_counts(pattern, count):
    """Multiset permutations of the leaf word times Catalan bracketings."""
    monomials = enumerate_monomials(pattern)
    assert len(monomials) == count
    assert len({t.serialize() for t in monomials}) == count


def test_monomial_caps():
    with pytest.raises(ValueError):
        enumerate_monomials((7,))
    with pytest.raises(ValueError):
        enumerate_monomials((1, 1, 1, 1))
    with pytest.raises(ValueError):
        enumerate_monomials((1,))


def test_expand_single_leaf_is_component_map():
    comps = identity_residual(T, [(1, L(0))])
    for i, p in enumerate(comps):
        exp = tuple(1 if j == i else 0 for j in range(4))
        assert p.terms == {exp: 1}


def test_expand_product_tree_matches_product_formula():
    comps = identity_residual(T, [(1, N(L(0), L(1)))])
    ex = Expander(T, 2)
    prod = T.generic_element("x", ex.vars) * T.generic_element("y", ex.vars)
    assert all((a - b).is_zero for a, b in zip(comps, prod.coeffs))


ORACLE_ALGEBRAS = {
    "H": quaternion_algebra(),
    "T": T,
    "family5(k=7/2)": family_constant(5, Fraction(7, 2)).algebra(),
    "T^-": commutator_algebra(T),
}


@st.composite
def _bracket_trees(draw):
    """A bracket tree on up to 3 variables with 1 to 8 leaves."""
    last = draw(st.integers(0, 2))

    def tree(leaves):
        if leaves == 1:
            return L(draw(st.integers(0, last)))
        split = draw(st.integers(1, leaves - 1))
        return N(tree(split), tree(leaves - split))

    return tree(draw(st.integers(1, 8)))


def _tensor_oracle(algebra, tree, nvars):
    """Nested ``tensor_product`` calls over generic ``MultiPoly`` elements."""
    n = algebra.dimension
    names = tuple(f"{VARIABLE_NAMES[v]}{i}" for v in range(nvars) for i in range(n))
    generic = [
        [MultiPoly.variable(f"{VARIABLE_NAMES[v]}{i}", names) for i in range(n)]
        for v in range(nvars)
    ]

    def product(t):
        if isinstance(t, Leaf):
            return generic[t.var]
        return tensor_product(
            algebra.entries, product(t.left), product(t.right), MultiPoly.zero(names)
        )

    return product(tree)


_X8 = N(N(N(L(0), L(0)), N(L(0), L(0))), N(N(L(0), L(0)), N(L(0), L(0))))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(ORACLE_ALGEBRAS)), _bracket_trees())
@example("H", _X8)
@example("T", N(_X8.left, N(L(1), N(L(2), N(L(0), L(0))))))
def test_expand_monomial_matches_nested_tensor_products(name, tree):
    """The packed expansion equals the product route it replaced, up to
    degree 8, where an exponent no longer fits in 3 bits."""
    algebra = ORACLE_ALGEBRAS[name]
    nvars = max(tree.leaves()) + 1
    assert identity_residual(algebra, [(1, tree)]) == _tensor_oracle(algebra, tree, nvars)


def test_power_bracketings_differ_symbolically():
    """x(xx) vs (xx)x differ, certifying non-power-associativity."""
    left = identity_residual(T, [(1, N(L(0), N(L(0), L(0))))])
    right = identity_residual(T, [(1, N(N(L(0), L(0)), L(0)))])
    assert any(not (a - b).is_zero for a, b in zip(left, right))


@pytest.mark.parametrize(
    "pattern,dim",
    [((2, 1), 1), ((4,), 2), ((2, 2), 14), ((3, 1), 9), ((5,), 9), ((6,), 34)],
)
def test_identity_space_dimensions(pattern, dim):
    assert identity_space(T, pattern).dimension == dim


@pytest.mark.parametrize(
    "algebra,pattern,monomials,dim",
    [
        (T, (3, 2), 140, 104),
        (T, (4, 1), 70, 50),
        (T, (2, 1, 1), 60, 31),
        (quaternion_algebra(), (3, 2), 140, 131),
        (quaternion_algebra(), (2, 2, 1), 420, 394),
    ],
    ids=["T-3,2", "T-4,1", "T-2,1,1", "H-3,2", "H-2,2,1"],
)
def test_identity_space_dimensions_of_the_bench_patterns(
    algebra, pattern, monomials, dim
):
    space = identity_space(algebra, pattern)
    assert (len(space.monomials), space.dimension) == (monomials, dim)
    assert len(space.nullspace_basis) == dim


def test_identity_space_of_the_commutator_algebra():
    """Components no structure-tensor entry reaches stay polynomials, so
    A^- (where xx = 0) has an identity space; each basis vector is an
    identity of A^-."""
    minus = commutator_algebra(T)
    space = identity_space(minus, (2, 1))
    assert (len(space.monomials), space.dimension) == (6, 5)
    for vec in space.nullspace_basis:
        combo = [(c, t) for c, t in zip(vec, space.monomials) if c != 0]
        assert verify_identity(minus, combo)


def test_named_identities_verify():
    assert verify_identity(T, fam.CUBIC_TWO_VAR)
    assert verify_identity(T, fam.QUARTIC_ONE_VAR_A)
    assert verify_identity(T, fam.QUARTIC_ONE_VAR_B)
    for combo in fam.QUARTIC_TWO_VAR_LISTED.values():
        assert verify_identity(T, combo)


def test_left_alternative_law_fails():
    x, y = L(0), L(1)
    combo = [(1, N(x, N(x, y))), (-1, N(N(x, x), y))]
    assert not verify_identity(T, combo)
    # concrete witness: x = w, y = w
    w = T.element([0, 1, 0, 0])
    assert w * (w * w) != (w * w) * w


def test_counterexample_of_a_residual():
    x, y, z = L(0), L(1), L(2)
    H = quaternion_algebra()
    associative = [(1, N(N(x, y), z)), (-1, N(x, N(y, z)))]
    assert counterexample(identity_residual(H, associative), H.dimension) is None
    flexible = [(1, N(N(x, y), x)), (-1, N(x, N(y, x)))]
    vectors = counterexample(identity_residual(T, flexible), T.dimension)
    assert len(vectors) == 2
    assert all(len(v) == 4 and all(type(c) is int for c in v) for v in vectors)
    a, b = (T.element(v) for v in vectors)
    assert (a * b) * a != a * (b * a)


def test_empty_combo_is_identity():
    assert verify_identity(T, [])


def test_pattern_mismatch_raises():
    with pytest.raises(ValueError):
        verify_identity(T, [(1, N(L(0), L(0))), (-1, N(L(0), L(1)))])


def test_family_instantiations():
    rng = random.Random(1009)
    for family in fam.FAMILIES:
        free = fam.FAMILIES[family][1]
        for _ in range(5):
            values = {
                n: Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for n in free
            }
            assert verify_identity(T, fam.instantiate_family(family, values))


def test_family_free_name_validation():
    with pytest.raises(KeyError):
        fam.instantiate_family("quintic", {"a1": 1})


def test_paper_combos_lie_in_computed_nullspace():
    """Unit instantiations of each family land inside the identity space."""
    space22 = identity_space(T, (2, 2))
    order = {t.serialize(): i for i, t in enumerate(space22.monomials)}
    for free_name in fam.QUARTIC_TWO_VAR_FREE:
        combo = fam.instantiate_family("quartic-two-var", {free_name: 1})
        vec = [Fraction(0)] * len(space22.monomials)
        for coeff, tree in combo:
            vec[order[tree.serialize()]] += coeff
        assert space22.contains(vec)


def test_variable_swap_closure():
    """Swapping the two variables maps the (2,2) nullspace into itself."""
    space = identity_space(T, (2, 2))

    def swap(tree):
        if isinstance(tree, Leaf):
            return Leaf(1 - tree.var)
        return Node(swap(tree.left), swap(tree.right))

    order = {t.serialize(): i for i, t in enumerate(space.monomials)}
    perm = [order[swap(t).serialize()] for t in space.monomials]
    for vec in space.nullspace_basis:
        swapped = [Fraction(0)] * len(vec)
        for i, v in enumerate(vec):
            swapped[perm[i]] = v
        assert space.contains(swapped)


def test_polarization_of_cubic_identity():
    """Substituting y = x^2 in the cubic identity gives the first quartic."""

    def substitute(tree):
        if isinstance(tree, Leaf):
            return N(L(0), L(0)) if tree.var == 1 else tree
        return Node(substitute(tree.left), substitute(tree.right))

    polarized = [(c, substitute(t)) for c, t in fam.CUBIC_TWO_VAR]
    assert verify_identity(T, polarized)
    collect = {}
    for c, t in polarized:
        key = t.serialize()
        collect[key] = collect.get(key, 0) + c
    target = {}
    for c, t in fam.QUARTIC_ONE_VAR_A:
        target[t.serialize()] = target.get(t.serialize(), 0) + c
    assert {k: v for k, v in collect.items() if v} == {
        k: v for k, v in target.items() if v
    }


def test_conjugate_identities():
    assert verify_conjugate_identities(T)
    # associative case: conj(x) (x y) = (conj(x) x) y = (x conj(x)) y
    H = quaternion_algebra()
    names = tuple(f"{p}{i}" for p in ("x", "y") for i in range(4))
    x = H.generic_element("x", names)
    y = H.generic_element("y", names)
    lhs = x.conj() * (x * y)
    rhs = y * (x * x.conj())
    # quaternion norm is central, so the same identity holds there too
    assert all((a - b).is_zero for a, b in zip(lhs.coeffs, rhs.coeffs))


def test_opposite_algebra_satisfies_mirrored_identities():
    """Reversing every product in the cubic identity holds in the opposite."""
    op = T.opposite()

    def mirror(tree):
        if isinstance(tree, Leaf):
            return tree
        return Node(mirror(tree.right), mirror(tree.left))

    mirrored = [(c, mirror(t)) for c, t in fam.CUBIC_TWO_VAR]
    assert verify_identity(op, mirrored)
    assert verify_conjugate_identities(op)


def test_loop_properties_tesseranion():
    props = loop_property_suite(T)
    assert not props.flexible
    assert not props.power_associative
    assert not props.alternative
    assert not props.left_bol and not props.right_bol
    assert not props.moufang
    assert not props.commutative and not props.associative
    # every failed law carries a concrete counterexample
    for name in ("flexible", "left_bol", "right_bol", "moufang", "associative"):
        assert name in props.counterexamples
    # the power-associativity witness is the generator's cube ambiguity
    w = T.element([0, 1, 0, 0])
    assert w * (w * w) == -((w * w) * w)


# each law as the difference of its two sides at concrete elements
LAW_RESIDUALS = {
    "flexible": lambda x, y, z: (x * y) * x - x * (y * x),
    "left_alternative": lambda x, y, z: x * (x * y) - (x * x) * y,
    "right_alternative": lambda x, y, z: (y * x) * x - y * (x * x),
    "commutative": lambda x, y, z: x * y - y * x,
    "associative": lambda x, y, z: (x * y) * z - x * (y * z),
    "left_bol": lambda x, y, z: x * (y * (x * z)) - (x * (y * x)) * z,
    "right_bol": lambda x, y, z: ((z * x) * y) * x - z * ((x * y) * x),
    "moufang": lambda x, y, z: (x * y) * (z * x) - (x * (y * z)) * x,
    "cube": lambda x, y, z: x * (x * x) - (x * x) * x,
}

LOOP_VERDICTS = {
    "flexible": ("flexible",),
    "power_associative": ("power_associative",),
    "alternative": ("left_alternative", "right_alternative"),
    "left_bol": ("left_bol",),
    "right_bol": ("right_bol",),
    "moufang": ("moufang",),
    "commutative": ("commutative",),
    "associative": ("associative",),
}


def _violates(law, args):
    if law == "power_associative":
        (x,) = args
        xx = x * x
        powers = {((xx * x) * x).coeffs, ((x * xx) * x).coeffs, (xx * xx).coeffs,
                  (x * (xx * x)).coeffs, (x * (x * xx)).coeffs}
        return len(powers) > 1 or not LAW_RESIDUALS["cube"](x, x, x).is_zero()
    x, y, z = (list(args) + [None, None])[:3]
    return not LAW_RESIDUALS[law](x, y, z).is_zero()


@pytest.mark.parametrize(
    "algebra",
    [complex_algebra(), quaternion_algebra(), T]
    + [family_constant(f, 2).algebra() for f in range(1, 9)],
    ids=["C", "H", "T"] + [f"family{f}" for f in range(1, 9)],
)
def test_every_failed_loop_law_carries_an_exact_counterexample(algebra):
    props = loop_property_suite(algebra)
    for verdict, laws in LOOP_VERDICTS.items():
        if getattr(props, verdict):
            assert not any(law in props.counterexamples for law in laws)
            continue
        failed = [law for law in laws if law in props.counterexamples]
        assert failed, verdict
        for law in failed:
            assert _violates(law, props.counterexamples[law]), law


def test_loop_properties_quaternion_and_complex():
    props_h = loop_property_suite(quaternion_algebra())
    assert props_h.associative and not props_h.commutative
    assert props_h.power_associative and props_h.alternative and props_h.flexible
    props_c = loop_property_suite(complex_algebra())
    assert all(
        getattr(props_c, k)
        for k in (
            "flexible", "power_associative", "alternative", "left_bol",
            "right_bol", "moufang", "commutative", "associative",
        )
    )


def test_fingerprint_stable_under_generator_rebase():
    """Rebasing on w' = [0,0,0,1] reproduces the same constant and dims."""
    from twistdiv.algebra import TwistedAlgebra

    w_prime = T.element([0, 0, 0, 1])
    rebuilt = structure_constant_from_generator(T, w_prime)
    assert rebuilt is not None
    assert rebuilt.values == T.constant.values
    rebased = TwistedAlgebra(rebuilt)
    for pattern in ((2, 1), (4,)):
        assert (
            identity_space(rebased, pattern).dimension
            == identity_space(T, pattern).dimension
        )


def _sha256(data):
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


# sha256 of ``IdentitySpace.to_json()`` (json.dumps with sorted keys), so
# that a change to the expansion or the row order that moves any basis
# vector shows up here
IDENTITY_SPACE_SHA256 = [
    ("T", (6,), "48732a581f141f5891fbd7198ffddd9c173c36baa2230b4152b562b4b6955552"),
    ("T", (2, 2), "209f20b793a644a39058bef560e0924879ca62e8fb29faaa138053fcf1ddecbb"),
    ("T", (3, 2), "44d7e4c435e1e4a89ab6c852283583cf18670029cd651ce8aa76fb0a674e55be"),
    ("T", (4, 1), "ec979a4aa165fe78c89ec7e3074cd8dbea4f78b77e3b43f82d2cd684c8ab4ceb"),
    ("T", (2, 1, 1), "7cb09e1e100e169201e47e5f10b6537fb21190afa8e8f12bfed5ae735a29bc4e"),
    ("H", (3, 2), "43baea43e656db42bdb2de46e8b762e0af982fd8b3024fb771424800325f9476"),
    ("H", (2, 2, 1), "efcb844dac89ac0eaba34589cccc883547b98e72c49e48c3295e3eb52701414b"),
    ("T^-", (2, 1), "888e493cf013d21f8f1e40b6cf1843da0717ba1f6c26eb73153c1a9fc6027b09"),
]


@pytest.mark.parametrize("name, pattern, digest", IDENTITY_SPACE_SHA256)
def test_identity_space_json_is_pinned(name, pattern, digest):
    algebra = ORACLE_ALGEBRAS[name]
    assert _sha256(identity_space(algebra, pattern).to_json()) == digest


# sha256 of ``loop_property_suite(...).to_json()``: verdicts and the
# counterexample read off each failed law's residual
LOOP_SUITE_SHA256 = [
    ("C", "92dae3fca2ed8112924b6f6d918ccb4edb841ee457e34f7deb01a1fced7b989d"),
    ("H", "67ada7fd008d5ebfc6d22ca3eb899128fd1e081006aa4c76e881070a1fc46c1e"),
    ("T", "555ba441b3952dcdbd0dd9c03494acabb99616d2133fc7a6719a7cc2c986ae06"),
    (1, "61cdda6e68580838321736a275c9366754f22c4c3385a7dc9e11de8fb461c83d"),
    (2, "b157e460997ed225bb35bd9c0564f30052e7dc19f27ce8c9962b24d1eb2e7780"),
    (3, "400015b3d6a21a43b2398bd4cfa547dfdf65e397766551ac3e3d6984a4b66b0c"),
    (4, "76f88bc26d2edddf9a0372856c6d26820371fde34dc23f5f4dc2c167c8451431"),
    (5, "dc617eb5da724fe9c45df8cf57ab56bc48ff5daa39916745926658f8e5a0b8d9"),
    (6, "04993bae09f392e5b6c59b48f12bb3dc55ac1e17975ca6d7c19134cd7b36fa27"),
    (7, "b157e460997ed225bb35bd9c0564f30052e7dc19f27ce8c9962b24d1eb2e7780"),
    (8, "27e5e710576f292b52bc2bc590bc1b25d33eb8be64ffd14041859897820423ce"),
]


@pytest.mark.parametrize("name, digest", LOOP_SUITE_SHA256)
def test_loop_property_suite_json_is_pinned(name, digest):
    """C, H, T and families 1-8 at k = 2."""
    if isinstance(name, int):
        algebra = family_constant(name, 2).algebra()
    else:
        algebra = {"C": complex_algebra(), "H": quaternion_algebra(), "T": T}[name]
    assert _sha256(loop_property_suite(algebra).to_json()) == digest
