"""curvelift: canonical lifts of surface curves in circle bundles.

Combinatorial diagrams for (cusp-)smooth multicurves on surfaces, their
canonical lifts into the unit/projective tangent bundle, lift-class
invariants, a Reidemeister-style move calculus with bounded equivalence
search, and the supporting exact algebra (Smith normal form, surface-group
word problems, Britton reduction for HNN extensions).
"""

from .errors import (
    CurveLiftError,
    DiagramSyntaxError,
    InapplicableMove,
    MalformedAssociatedSubgroup,
    ModeMismatch,
    NonIntegralTurning,
    UnsupportedSurface,
)
from .surfaces import (
    BundleKind,
    CircleBundle,
    GroupPresentation,
    Surface,
    bundle_pi1_presentation,
    surface_pi1_presentation,
)
from .snf import (
    AbelianGroup,
    BundleFit,
    diagonal,
    filling_quotient,
    genus_from_filling_h1,
    smith_normal_form,
)
from .homology import abelianization, bundle_h1, exponent_vector
from .words import (
    CONSISTENT,
    VIOLATES,
    GroupElementExpr,
    conjugacy_class_key,
    conjugate_classes_equal,
    cyclic_dehn_reduce,
    cyclic_reduce,
    dehn_reduce,
    exponent_sum,
    free_reduce,
    inverse_word,
    is_trivial,
    powersum_check,
)
from .hnn import HNNExtension, HNNWord, britton_reduce, is_trivial_hnn
from .diagrams import (
    Diagram,
    Violation,
    cross,
    cusp,
    edge,
    kink,
    parse,
    qturn,
    serialize,
    shadow_word,
    validate,
)
from .lifting import (
    LiftClass,
    TwistedShadow,
    canonicalize,
    lift_class,
    lift_classes,
    parse_twisted_shadow,
    raw_turning,
    serialize_twisted_shadow,
    shadow_homology_vector,
    turning_delta,
    turning_number,
    vertex_link_curve,
)
from .moves import (
    EquivalenceVerdict,
    MoveInstance,
    SearchBudget,
    applicable_moves,
    apply_move,
    canonical_key,
    contract_kink,
    diagrams_equal,
    equivalent_bounded,
    expand_kink,
    invert_move,
    move_from_json,
    move_to_json,
    replay,
    transvection,
    transvection_fiber_shift,
)

__version__ = "0.1.0"
