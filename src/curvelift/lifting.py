"""Canonical-lift invariants and canonicalization of twisted shadows.

The turning model (each event's turning and each mode's fiber unit) lives in
diagrams: raw_turning, fiber_degree and fiber_loops.  The homology class of
the lift in H1 of the circle bundle is the abelianized shadow plus the fiber
degree reduced mod |e|.
"""

from __future__ import annotations

from collections import namedtuple

from .diagrams import (
    FIBER_UNIT,
    MODE_FOR_KIND,
    Diagram,
    DiagramSyntaxError,
    _parse_with_annotations,
    edge,
    fiber_degree,
    fiber_loops,
    serialize,
)
from .errors import ModeMismatch
from .surfaces import CircleBundle, Surface, surface_pi1_presentation
from .words import eliminate_last_boundary


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
        return {"base": list(self.base_part), "fiber": self.fiber_part,
                "euler_number": self.euler_number}


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
        raise ModeMismatch(f"diagram surface {diagram.surface} != bundle base {bundle.base}")
    if diagram.mode != MODE_FOR_KIND[bundle.kind]:
        raise ModeMismatch(f"{diagram.mode} diagram cannot live in {bundle.kind.value} bundle")


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
            ok = 0 <= ci < len(comps) and 0 <= pos < len(comps[ci]) and comps[ci][pos][0] == "qturn"
            if not ok:
                raise ValueError(f"corner references missing quarter turn ({ci}, {pos})")
            if mode not in ("smooth", "through_loop"):
                raise ValueError(f"bad corner mode {mode!r}")
        return self


def turning_delta(shadow: TwistedShadow) -> int:
    """The change canonicalize makes to the turning, summed over all
    components (not per component): every twist m adds m, every through_loop
    corner of sign s adds -s, and a fix adds a loop and its opposite.  Twists
    +2 and -3 on two components give -1."""
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
    per_turn = FIBER_UNIT[mode][1]  # loops of the fiber unit per tangent turn

    new_components = []
    for ci, comp in enumerate(diagram.components):
        events: list = []
        for pos, ev in enumerate(comp):
            events += fiber_loops(mode, per_turn * twists.get((ci, pos), 0))
            if ev[0] == "cross" and ev[2] == 1 and ev[1] in fixes:
                n = per_turn if fixes[ev[1]] == "left" else -per_turn
                events += fiber_loops(mode, n) + [ev] + fiber_loops(mode, -n)
            elif ev[0] == "qturn" and corners.get((ci, pos)) == "through_loop":
                events += [ev] + fiber_loops(mode, -per_turn * ev[1])
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
