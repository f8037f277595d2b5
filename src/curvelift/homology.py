"""Abelianization of finite presentations and circle-bundle homology."""

from __future__ import annotations

from .snf import AbelianGroup
from .surfaces import CircleBundle, GroupPresentation, bundle_pi1_presentation, exponent_vector


def abelianization(presentation: GroupPresentation) -> AbelianGroup:
    """Cokernel of the relator exponent-sum matrix."""
    rows = [exponent_vector(rel, presentation.generators) for rel in presentation.relators]
    return AbelianGroup.from_relation_matrix(rows, len(presentation.generators))


def bundle_h1(bundle: CircleBundle) -> AbelianGroup:
    """First homology of a circle bundle, computed by abelianizing its
    fundamental-group presentation (not by pattern-matching the closed form:
    the closed form Z^2g + Z/|e|, resp. Z^{2g+k-1} + Z, is the test oracle)."""
    return abelianization(bundle_pi1_presentation(bundle))
