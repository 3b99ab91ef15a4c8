"""Behaviour that the package's plain ``__slots__`` records keep.

Each record has only the methods its callers use: equality where
records are compared, the dataclass-style repr where a repr is printed or
pinned, and no hash of its fields, since no caller hashes a record.
Slots refuse an attribute that is not a field.
"""

from fractions import Fraction

import pytest

from twistdiv.algebra import tesseranion_algebra
from twistdiv.classify import (
    SHAPED,
    CandidateConstant,
    ClassificationReport,
    Fingerprint,
    RealRootRejection,
    SurvivorCertificate,
    classify,
)
from twistdiv.groups import LEFT_STANDARD
from twistdiv.identities import Expander, Leaf, Node
from twistdiv.norms import IteratedNormSpec
from twistdiv.poly import MultiPoly, SosCertificate


@pytest.fixture(scope="module")
def z4():
    return classify("Z4", LEFT_STANDARD, SHAPED)


@pytest.fixture(scope="module")
def z4_root(z4):
    (witness,) = [w for _, w in z4.rejected if isinstance(w, RealRootRejection)]
    return witness


def _fields(witness):
    return [witness.position, witness.base, witness.coefficients,
            witness.interval, witness.root_count]


def test_fingerprints_compare_by_every_field():
    fields = [True, False, True, (((2, 1), 3), ((4,), 1))]
    assert Fingerprint(*fields) == Fingerprint(*fields)
    assert not Fingerprint(*fields) != Fingerprint(*fields)
    for i, other in enumerate([False, True, False, (((2, 1), 3),)]):
        changed = fields[:i] + [other] + fields[i + 1:]
        assert Fingerprint(*fields) != Fingerprint(*changed), i
    assert Fingerprint(*fields) != tuple(fields)


def test_a_line_root_compares_by_every_field(z4_root):
    fields = _fields(z4_root)
    assert RealRootRejection(*fields) == z4_root
    others = [1, (1, 0, 1), (4, 0, -4, 0, 2), (Fraction(-2), Fraction(-1)), 2]
    for i, other in enumerate(others):
        changed = fields[:i] + [other] + fields[i + 1:]
        assert RealRootRejection(*changed) != z4_root, i
    assert z4_root != tuple(fields)


def test_a_line_root_repr_is_pinned(z4_root):
    """The repr reads as the dataclass one did: the deform witness digests
    and the benchmark's failure messages print it."""
    assert repr(z4_root) == (
        "RealRootRejection(position=0, base=(1, 0, -1), "
        "coefficients=(4, 0, -4, 0, 1), "
        "interval=(Fraction(-93, 64), Fraction(-45, 32)), root_count=1)"
    )


def test_survivor_and_sos_certificates_compare_by_every_field(z4):
    _, cert = z4.survivors[0]
    left, right = cert.cert_left, cert.cert_right
    assert SosCertificate(tuple(left.parts)) == left
    assert SosCertificate(left.parts[1:]) != left
    assert left != left.parts
    assert SurvivorCertificate(cert.kind, left, right) == cert
    assert SurvivorCertificate("odd-dimension-unit", left, right) != cert
    assert SurvivorCertificate(cert.kind, right, right) != cert
    assert SurvivorCertificate(cert.kind, left, left) != cert
    assert cert != (cert.kind, left, right)


def test_candidates_and_reports_compare_by_value(z4):
    again = classify("Z4", LEFT_STANDARD, SHAPED)
    assert again == z4 and again is not z4
    cand = z4.survivors[0][0]
    assert CandidateConstant(cand.constant, cand.parameters) == cand
    assert CandidateConstant(cand.constant, ()) != cand
    fields = [z4.group_name, z4.convention, z4.mode, z4.candidates_examined,
              z4.rejected, z4.survivors, z4.undetermined]
    assert ClassificationReport(*fields) == z4
    assert ClassificationReport(*fields[:3], 65, *fields[4:]) != z4
    assert ClassificationReport(*fields[:4], z4.rejected[1:], *fields[5:]) != z4


def test_trees_are_never_keys():
    """No code keys a tree by its content: a tree compares and hashes by
    identity, and two trees built apart share one expansion because the
    expander caches each product under its factors' expansions."""
    x, y = Leaf(0), Leaf(1)
    assert Leaf(0) != x and Node(x, y) != Node(x, y)
    assert len({Leaf(0), Leaf(0)}) == 2
    expander = Expander(tesseranion_algebra(), 2, 3)
    first = Node(Node(Leaf(0), Leaf(1)), Leaf(0))
    again = Node(Node(Leaf(0), Leaf(1)), Leaf(0))
    assert first.serialize() == again.serialize() == "((xy)x)"
    assert expander.expand(first.left) is expander.expand(again.left)
    assert expander.expand(first) is expander.expand(again)


def test_records_refuse_an_attribute_that_is_not_a_field(z4, z4_root):
    (y0,) = MultiPoly.variables(("y0",))
    records = [z4, z4.survivors[0][0], z4.survivors[0][1], z4_root,
               SosCertificate(((1, y0),)), Leaf(0), IteratedNormSpec(1, 1)]
    for record in records:
        with pytest.raises(AttributeError):
            record.extra = 1
