"""Finite groups, their modular group algebras, and deciders for the
centrally essential property."""

from .algebra import AlgebraElement, GroupAlgebra, center_basis, commutator, omega_ideal_basis, subgroup_idempotent
from .catalog import get as catalog_get
from .decision import (
    ESSENTIAL,
    NOT_ESSENTIAL,
    BudgetError,
    DecisionReport,
    decide,
    oracle_centrally_essential,
    socle_centrally_essential,
    witness_ce,
    witness_not_ce,
)
from .fields import GF, Matrix, field_make
from .groups import FiniteGroup, direct_product, group_from_generators, semidirect_product

__version__ = "0.1.0"
