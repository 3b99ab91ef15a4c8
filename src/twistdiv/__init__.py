"""Exact engine for sign-twisted group algebras over the rationals.

Classifies which unital {1,-1} structure constants on groups of order
up to 4 give division algebras, and verifies the resulting algebras'
identities, cohomological functions, norms, inverses, deformations and
mod-p arithmetic -- all in exact arithmetic.
"""

from .algebra import (
    AlgebraElement,
    IntegersModP,
    Rationals,
    StructureConstant,
    TwistedAlgebra,
    algebra_by_name,
    complex_algebra,
    quaternion_algebra,
    tesseranion_algebra,
)
from .classify import classify, enumerate_candidates, non_isomorphism_fingerprint
from .groups import FiniteGroup, group_by_name, standard_basis_words
from .poly import MultiPoly, SosCertificate, symbolic_det

__all__ = [
    "AlgebraElement",
    "FiniteGroup",
    "IntegersModP",
    "MultiPoly",
    "Rationals",
    "SosCertificate",
    "StructureConstant",
    "TwistedAlgebra",
    "algebra_by_name",
    "classify",
    "complex_algebra",
    "enumerate_candidates",
    "group_by_name",
    "non_isomorphism_fingerprint",
    "quaternion_algebra",
    "standard_basis_words",
    "symbolic_det",
    "tesseranion_algebra",
]

__version__ = "0.1.0"
