"""Exact intersection-theory calculator for orbit invariants of smooth quadrics.

The package computes in Chow rings of products of projective spaces over
exact rationals, pushes Segre classes forward along Segre embeddings, and
assembles predegree polynomials of smooth quadric hypersurfaces, together
with exact linear-algebra verification of the tangent-space geometry of the
base locus.

``import predegree`` loads no submodule: each public name below is looked up
in its module on first use (PEP 562), so a one-shot ``predegree`` command
compiles only the modules it runs.
"""

from importlib import import_module

__version__ = "0.1.0"

# Each submodule and the public names it exports.
_EXPORTS = {
    "chow": ("ChowClass", "ProductSpace"),
    "linalg": ("LinearSubspace",),
    "polynomial": (
        "IntegralityError",
        "PredegreePolynomial",
        "chern_character_form",
        "deg_po",
        "deg_so",
        "fano_dim",
        "max_component_dim",
        "predegree_coefficient",
        "predegree_from_segre",
        "tensor_class",
    ),
    "quadric": (
        "ProjMatrix",
        "QuadricGram",
        "SEGRE_QUADRIC",
        "base_scheme_member",
        "point_condition_gradient",
        "point_condition_value",
        "predegree_quadric_p3",
        "sigma1",
        "sigma2",
        "table1_row",
        "table2",
    ),
    "segre": (
        "ambient_dim",
        "normal_inverse_chern",
        "pushforward_class",
        "pushforward_monomial",
        "segre_class_pushforward",
    ),
    "tangent": (
        "gradient_span",
        "run_tangent_checks",
        "tangent_intersection_locus",
        "tangent_ruling_component",
        "verify_gradient_rank",
        "verify_tangent_intersection",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str):
    # Not cached in the package namespace, so a name always reads its module's current value.
    if name in _MODULE_OF:
        return getattr(import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
