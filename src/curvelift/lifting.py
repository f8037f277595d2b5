"""Canonical-lift invariants and canonicalization of twisted shadows.

The turning model (each event's turning and each mode's fiber unit) lives in
diagrams: raw_turning and fiber_degree.  The homology class of the lift in H1
of the circle bundle is the abelianized shadow plus the fiber degree reduced
mod |e|.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction

from .diagrams import (
    FIBER_UNIT,
    MODE_FOR_KIND,
    Diagram,
    DiagramSyntaxError,
    _parse_with_annotations,
    edge,
    fiber_degree,
    serialize,
)
from .errors import ModeMismatch
from .surfaces import CircleBundle, Surface, surface_pi1_presentation
from .words import eliminate_last_boundary


def turning_number(diagram: Diagram, component: int):
    """Integer (smooth mode) or half-integer (cusp-smooth) turning number."""
    turning = Fraction(fiber_degree(diagram, component), FIBER_UNIT[diagram.mode][1])
    return int(turning) if turning.denominator == 1 else turning


class LiftClass(namedtuple("LiftClass", "base_part fiber_part euler_number")):
    """Homology class of the canonical lift: abelianized shadow plus fiber
    degree reduced to [0, |e|) when e != 0."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, base_part: tuple[int, ...], fiber_part: int, euler_number: int):
        self = tuple.__new__(cls, (base_part, fiber_part, euler_number))
        if self.euler_number != 0 and not 0 <= self.fiber_part < abs(self.euler_number):
            raise ValueError("fiber_part must be reduced mod |e|")
        return self

    def to_json(self) -> dict:
        return {
            "base": list(self.base_part),
            "fiber": self.fiber_part,
            "euler_number": self.euler_number,
        }


def shadow_homology_vector(diagram: Diagram, component: int) -> tuple[int, ...]:
    """Abelianized shadow: the exponent sums of its edge word, d_k eliminated,
    over the generators of surface_pi1_presentation (a_i, b_i, d_1..d_{k-1})."""
    surface = diagram.surface
    tokens = [ev[1] for ev in diagram.components[component] if ev[0] == "edge"]
    word = eliminate_last_boundary(surface.encode(tokens), surface)
    gens = surface_pi1_presentation(surface).generators
    return tuple(word.count(ch) - word.count(ch.upper()) for ch in gens)


def _check_mode(diagram: Diagram, bundle: CircleBundle) -> None:
    if diagram.surface != bundle.base:
        raise ModeMismatch(
            f"diagram surface {diagram.surface} != bundle base {bundle.base}"
        )
    if diagram.mode != MODE_FOR_KIND[bundle.kind]:
        raise ModeMismatch(
            f"{diagram.mode} diagram cannot live in {bundle.kind.value} bundle"
        )


def lift_class(diagram: Diagram, bundle: CircleBundle, component: int) -> LiftClass:
    _check_mode(diagram, bundle)
    base = shadow_homology_vector(diagram, component)
    m = fiber_degree(diagram, component)
    e = bundle.euler_number
    return LiftClass(base, m % abs(e) if e != 0 else m, e)


# ----------------------------------------------------------------------
# calibration curve


def vertex_link_curve(surface: Surface) -> Diagram:
    """Test curve encircling the polygon cone point: one crossing per polygon
    side (all 4g boundary-word letters in order), smooth pass-through at the
    corners.  Under the frozen offset table its turning equals chi(S)."""
    if not surface.is_closed or surface.genus < 1:
        raise ValueError("vertex link curve is defined for closed genus >= 1")
    events = tuple(edge(surface.name_of(ch)) for ch in surface.boundary_word())
    return Diagram(surface, "smooth", (events,))


# ----------------------------------------------------------------------
# twisted shadows and canonicalization


class TwistedShadow(namedtuple("TwistedShadow", "diagram twists crossing_fixes corner_modes")):
    """Rectilinear diagram without kinks/cusps, plus fiber-twist annotations.

    twists:        (component, position) -> m, fiber twists over the straight
                   segment entering the event at that position
    crossing_fixes: crossing id -> "left" | "right" (flanking loops on the
                   slot-1 strand)
    corner_modes:  (component, position) -> "smooth" | "through_loop" for
                   quarter-turn events
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, diagram: Diagram, twists=(), crossing_fixes=(), corner_modes=()):
        self = tuple.__new__(cls, (diagram, twists, crossing_fixes, corner_modes))
        for comp in self.diagram.components:
            for ev in comp:
                if ev[0] in ("kink", "cusp"):
                    raise ValueError("twisted shadows may not contain kinks or cusps")
        comps = self.diagram.components
        for (ci, pos), _ in self.twists:
            if not (0 <= ci < len(comps) and 0 <= pos < max(len(comps[ci]), 1)):
                raise ValueError(f"twist references missing segment ({ci}, {pos})")
        ids = self.diagram.crossing_ids()
        for cid, side in self.crossing_fixes:
            if cid not in ids:
                raise ValueError(f"fix references missing crossing {cid}")
            if side not in ("left", "right"):
                raise ValueError(f"bad fix side {side!r}")
        for (ci, pos), mode in self.corner_modes:
            ok = (
                0 <= ci < len(comps)
                and 0 <= pos < len(comps[ci])
                and comps[ci][pos][0] == "qturn"
            )
            if not ok:
                raise ValueError(f"corner references missing quarter turn ({ci}, {pos})")
            if mode not in ("smooth", "through_loop"):
                raise ValueError(f"bad corner mode {mode!r}")
        return self


def _loops(mode: str, n: int) -> list:
    """Same-side loops of the mode's fiber unit that turn the tangent n times:
    |n| kinks in smooth mode, |n| cusp pairs in cusp-smooth mode."""
    loop, per_turn = FIBER_UNIT[mode]
    return [loop(1 if n > 0 else -1)] * (per_turn * abs(n))


def turning_delta(shadow: TwistedShadow) -> int:
    """Documented bookkeeping: canonicalization changes each component's total
    turning by sum of twists plus -s per through_loop corner (fixes are net
    zero)."""
    total = sum(m for _, m in shadow.twists)
    comps = shadow.diagram.components
    for (ci, pos), mode in shadow.corner_modes:
        if mode == "through_loop":
            total -= comps[ci][pos][1]
    return total


def canonicalize(shadow: TwistedShadow, bundle: CircleBundle) -> Diagram:
    """Insert the annotated fiber corrections: |m| kinks (cusp pairs in PT
    mode) per twisted segment, flanking loops at fixed crossings, and the
    loop-turn macro at through_loop corners."""
    diagram = shadow.diagram
    _check_mode(diagram, bundle)
    twists = dict(shadow.twists)
    fixes = dict(shadow.crossing_fixes)
    corners = dict(shadow.corner_modes)
    mode = diagram.mode

    new_components = []
    for ci, comp in enumerate(diagram.components):
        events: list = []
        for pos, ev in enumerate(comp):
            events += _loops(mode, twists.get((ci, pos), 0))
            if ev[0] == "cross" and ev[2] == 1 and ev[1] in fixes:
                sign = 1 if fixes[ev[1]] == "left" else -1
                events += _loops(mode, sign) + [ev] + _loops(mode, -sign)
            elif ev[0] == "qturn" and corners.get((ci, pos)) == "through_loop":
                events += [ev] + _loops(mode, -ev[1])
            else:
                events.append(ev)
        # twists keyed at len(comp) would be out of range; segments are keyed
        # by the event they precede, cyclically, so position 0 covers the wrap.
        new_components.append(tuple(events))
    return diagram.with_components(new_components)


# ----------------------------------------------------------------------
# twisted-shadow text format


def parse_twisted_shadow(text: str) -> tuple[TwistedShadow, CircleBundle]:
    diagram, bundle, extras = _parse_with_annotations(text)
    twists = []
    fixes = []
    corners = []
    for lineno, line in extras:
        head, _, rest = line.partition(":")
        parts = rest.split()
        try:
            if head == "twist":
                ci, pos, m = parts
                twists.append(((int(ci), int(pos)), int(m)))
            elif head == "fix":
                cid, side = parts
                fixes.append((cid, side))
            else:
                ci, pos, mode = parts
                corners.append(((int(ci), int(pos)), mode))
        except (ValueError, TypeError):
            raise DiagramSyntaxError(f"bad {head} annotation {rest!r}", lineno) from None
    try:
        shadow = TwistedShadow(diagram, tuple(twists), tuple(fixes), tuple(corners))
    except ValueError as exc:
        raise DiagramSyntaxError(str(exc)) from None
    return shadow, bundle


def serialize_twisted_shadow(shadow: TwistedShadow, bundle: CircleBundle) -> str:
    out = serialize(shadow.diagram, bundle)
    lines = []
    for (ci, pos), m in shadow.twists:
        lines.append(f"twist: {ci} {pos} {m}")
    for cid, side in shadow.crossing_fixes:
        lines.append(f"fix: {cid} {side}")
    for (ci, pos), mode in shadow.corner_modes:
        lines.append(f"corner: {ci} {pos} {mode}")
    return out + "".join(line + "\n" for line in lines)
