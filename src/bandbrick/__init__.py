"""Perfectly clustering words and band bricks over gentle algebras.

Word transforms (Burrows-Wheeler and the necklace bijection), the
Dyck-path multislalom model for g-vectors, band modules with Hom
counted by graph maps, Euler-form compatibility, and the closed-form
brick test for four vertices, with a CLI exposing every operation.
"""

from .dyck import (
    circular_words,
    component_gvectors,
    erase_ones,
    reconstruct_multislalom,
    validate_gvector,
)
from .forms import (
    compatible,
    euler_form,
    hom_difference_check,
    is_brick_gvector,
    is_brick_gvector_n4,
    max_compatible_search,
    necklace_count_bound_check,
)
from .gentle import (
    band_module,
    ext1_dim,
    g_vector_of_band,
    hom_dim,
    is_brick,
    letter_cycle,
    psi,
    slalom_to_band_walk,
    validate_band_walk,
)
from .render import render_dyck
from .words import (
    bw_inverse,
    bw_transform,
    is_perfectly_clustering,
    is_perfectly_clustering_by_factors,
    is_primitive,
    necklace,
    phi,
    phi_inverse,
    rotations,
    standard_permutation,
)

__all__ = [
    "band_module",
    "bw_inverse",
    "bw_transform",
    "circular_words",
    "compatible",
    "component_gvectors",
    "erase_ones",
    "euler_form",
    "ext1_dim",
    "g_vector_of_band",
    "hom_difference_check",
    "hom_dim",
    "is_brick",
    "is_brick_gvector",
    "is_brick_gvector_n4",
    "is_perfectly_clustering",
    "is_perfectly_clustering_by_factors",
    "is_primitive",
    "letter_cycle",
    "max_compatible_search",
    "necklace",
    "necklace_count_bound_check",
    "phi",
    "phi_inverse",
    "psi",
    "reconstruct_multislalom",
    "render_dyck",
    "rotations",
    "slalom_to_band_walk",
    "standard_permutation",
    "validate_band_walk",
    "validate_gvector",
]

__version__ = "0.1.0"
