"""Exact nilpotent and Lie-algebraic invariants of arrangement groups.

The package works at the level of rank <= 2 intersection data: Betti and
Mobius numbers, graded pieces of the holonomy Lie algebra over Z, Q, or
F_p, the Falk invariant, the second nilpotent quotient with its
k-invariant, H2 of truncated quotients, decomposability, LCS ranks of
decomposable arrangements, and the diagram certificate that compares
nilpotent quotients across lattice-isomorphic arrangements.
"""

from . import rings
from .arrangement import Arrangement, ArrangementError, BettiData, Flat2, \
    arrangement_from_json, arrangement_to_json, betti, braid, \
    catalog_arrangement, generic, load_arrangement, localize, mobius_l2, \
    near_pencil, pencil, pencils_from_normals, standard_catalog
from .freelie import DEFAULT_GUARD, SizeGuardError, witt_rank
from .holonomy import GradedAbelian, HolonomyAlgebra, Presentation, \
    RelationSet, empty_relation_set, falk_invariant, holonomy_degrees, \
    holonomy_graded, holonomy_map_from_presentation, i2_basis, \
    make_presentation, presentation_from_json, relation_set
from .nilpotent import Class2Element, Class2Group, GradedLie, ce_h2, \
    h2_rank_check, k_invariant_matrix, relation_words, truncated_lie
from .decomp import DiagramInstance, GlobalLift, LatticeIso, LocalLift, \
    assemble_global_lift, check_diagram, diagram_instance, is_decomposable, \
    lattice_iso, lcs_ranks_decomposable, local_lift, localize_global_lift, \
    verify_decomposable_iso, zero_local_lifts

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
