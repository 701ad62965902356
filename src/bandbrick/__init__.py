"""Perfectly clustering words and band bricks over gentle algebras.

Word transforms (Burrows-Wheeler and the necklace bijection), the
Dyck-path multislalom model for g-vectors, band modules with Hom
counted by graph maps, Euler-form compatibility, and the closed-form
brick test for four vertices, with a CLI exposing every operation.

The exports load on first use: ``import bandbrick`` loads no layer, and
``bandbrick.psi`` imports ``bandbrick.gentle`` and reads its ``psi``.
"""

_EXPORTS = {
    "dyck": (
        "circular_words", "component_gvectors", "erase_ones", "reconstruct_multislalom",
        "validate_gvector",
    ),
    "forms": (
        "compatible", "euler_form", "hom_difference_check", "is_brick_gvector",
        "is_brick_gvector_n4", "max_compatible_search", "necklace_count_bound_check",
    ),
    "gentle": (
        "band_module", "ext1_dim", "g_vector_of_band", "hom_dim", "is_brick", "letter_cycle",
        "psi", "slalom_to_band_walk", "validate_band_walk",
    ),
    "render": ("render_dyck",),
    "words": (
        "bw_inverse", "bw_transform", "is_perfectly_clustering",
        "is_perfectly_clustering_by_factors", "is_primitive", "necklace", "phi", "phi_inverse",
        "rotations", "standard_permutation",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name):
    # every access reads the defining module's binding, so a name replaced
    # there (by monkeypatch, or a tracer's wrapper) shows here too; the
    # package keeps no copy
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)


def __dir__():
    # dir() and tab completion list the exports before any of them loads
    return sorted({*globals(), *__all__})
