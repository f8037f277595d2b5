"""curvelift: canonical lifts of surface curves in circle bundles.

Combinatorial diagrams for (cusp-)smooth multicurves on surfaces, their
canonical lifts into the unit/projective tangent bundle, lift-class
invariants, a Reidemeister-style move calculus with bounded equivalence
search, and the supporting exact algebra (Smith normal form, surface-group
word problems, Britton reduction for HNN extensions).

Names are resolved on first use (PEP 562): ``import curvelift`` loads no
submodule, and ``curvelift.X`` imports only the submodule that defines X.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CurveLiftError", "DiagramSyntaxError", "InapplicableMove", "MalformedAssociatedSubgroup",
        "ModeMismatch", "NonIntegralTurning", "UnsupportedSurface",
    ),
    "surfaces": (
        "BundleKind", "CircleBundle", "GroupPresentation", "Surface", "bundle_pi1_presentation",
        "surface_pi1_presentation",
    ),
    "snf": (
        "AbelianGroup", "BundleFit", "diagonal", "filling_quotient", "genus_from_filling_h1",
        "smith_normal_form",
    ),
    "homology": ("abelianization", "bundle_h1", "exponent_vector"),
    "words": (
        "CONSISTENT", "VIOLATES", "GroupElementExpr", "conjugacy_class_key",
        "conjugate_classes_equal", "cyclic_dehn_reduce", "cyclic_reduce", "dehn_reduce",
        "exponent_sum", "free_reduce", "inverse_word", "is_trivial", "powersum_check",
    ),
    "hnn": ("HNNExtension", "HNNWord", "britton_reduce", "is_trivial_hnn"),
    "diagrams": (
        "Diagram", "Violation", "cross", "cusp", "edge", "fiber_degree", "kink", "parse", "qturn",
        "raw_turning", "serialize", "shadow_word", "validate",
    ),
    "lifting": (
        "LiftClass", "TwistedShadow", "canonicalize", "lift_class", "parse_twisted_shadow",
        "serialize_twisted_shadow", "shadow_homology_vector", "turning_delta", "vertex_link_curve",
    ),
    "moves": (
        "EquivalenceVerdict", "MoveInstance", "SearchBudget", "applicable_moves", "apply_move",
        "canonical_key", "diagrams_equal", "equivalent_bounded", "invert_move", "move_from_json",
        "move_to_json", "replay", "transvection", "transvection_fiber_shift",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # A submodule name is resolved too: importing the package used to load them all.
    module = _MODULE_OF.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    submodule = importlib.import_module(f"{__name__}.{module}")
    value = submodule if module == name else getattr(submodule, name)
    globals()[name] = value
    return value


def __dir__():
    return list(__all__)
