"""Combinatorial multicurve diagrams on a surface, in rectilinear normal form.

A component is a cyclic sequence of events.  Tangent-direction data is
carried exclusively by quarter turns, kinks, and cusps; polygon-side
crossings are recorded as edge letters and double points as paired crossing
events.  Geometric realizability of the resulting Gauss data is not checked,
only local/combinatorial validity.

Event encoding (tuples, first entry = tag):
  ("edge", letter)    polygon-side crossing; letter like "a1" or "a1'"
  ("cross", id, slot) one visit to a double point; slot in {1, 2}
  ("kink", s)         atomic small loop, s = +1 left, -1 right
  ("cusp", s)         cusp, s = +1 up, -1 down (cusp-smooth mode only)
  ("qturn", s)        quarter turn, s = +-1

Text format (one file per diagram):
  surface genus=<g> boundary=<k>
  bundle <UT|PT|TRIVIAL>
  comp: <events space-separated>
with tokens a1 / a1' / X<id>.<slot> / L+ / L- / C^ / Cv / Q+ / Q-.
Comments start with '#'.
"""

from __future__ import annotations

import re
from collections import Counter, namedtuple
from fractions import Fraction

from .errors import DiagramSyntaxError, NonIntegralTurning
from .surfaces import BundleKind, CircleBundle, Surface, bundle_for_token
from .words import cyclic_reduce

Event = tuple

SMOOTH = "smooth"
CUSP_SMOOTH = "cusp"

MODE_FOR_KIND = {
    BundleKind.UNIT_TANGENT: SMOOTH,
    BundleKind.TRIVIAL: SMOOTH,
    BundleKind.CUSTOM: SMOOTH,
    BundleKind.PROJECTIVE_TANGENT: CUSP_SMOOTH,
}


def edge(letter: str) -> Event:
    return ("edge", letter)


def cross(cid: str, slot: int) -> Event:
    return ("cross", str(cid), int(slot))


def kink(sign: int) -> Event:
    return ("kink", sign)


def cusp(sign: int) -> Event:
    return ("cusp", sign)


def qturn(sign: int) -> Event:
    return ("qturn", sign)


# The turning model (docs/turning_model.md): each fixed event's token and quarter
# turns; a crossing turns by 0, a polygon side by the offset in _turning.
FIXED_EVENTS = (
    ("L+", kink(1), 4), ("L-", kink(-1), -4),
    ("C^", cusp(1), 2), ("Cv", cusp(-1), -2),
    ("Q+", qturn(1), 1), ("Q-", qturn(-1), -1),
)
_QUARTER_TURNS = {ev: quarters for _, ev, quarters in FIXED_EVENTS}

# Each mode's fiber unit: the loop that turns the fiber once, and the fiber turns
# per tangent turn (2 in PT, where a tangent line comes back after half a turn).
FIBER_UNIT = {SMOOTH: (kink, 1), CUSP_SMOOTH: (cusp, 2)}


def fiber_loops(mode: str, n: int) -> list:
    """|n| loops of the mode's fiber unit, signed as n: they turn the fiber n times."""
    return [FIBER_UNIT[mode][0](1 if n > 0 else -1)] * abs(n)


class Diagram(namedtuple("Diagram", "surface mode components")):
    """Components (tuples of events) in mode SMOOTH or CUSP_SMOOTH."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, surface: Surface, mode: str, components: tuple[tuple[Event, ...], ...]):
        self = tuple.__new__(cls, (surface, mode, components))
        if self.mode not in FIBER_UNIT:
            raise ValueError(f"unknown mode {self.mode!r}")
        return self

    def with_components(self, components) -> "Diagram":
        return Diagram(self.surface, self.mode, tuple(tuple(c) for c in components))

    def crossing_ids(self) -> set[str]:
        return {ev[1] for comp in self.components for ev in comp if ev[0] == "cross"}


# ----------------------------------------------------------------------
# validation


class Violation(namedtuple("Violation", "rule component detail")):
    """A rule broken by one component (None: the whole diagram), with detail."""

    __slots__ = ()

    def __str__(self) -> str:
        where = f" (component {self.component})" if self.component is not None else ""
        return f"{self.rule}{where}: {self.detail}"


def validate(diagram: Diagram) -> list[Violation]:
    """Empty list iff all diagram invariants hold; violations are data."""
    out: list[Violation] = []
    surface = diagram.surface
    letters = set(surface.generator_names)
    slots: dict[str, Counter] = {}
    for ci, comp in enumerate(diagram.components):
        for ev in comp:
            tag = ev[0]
            if tag == "edge":
                base = ev[1][:-1] if ev[1].endswith("'") else ev[1]
                if base not in letters:
                    out.append(Violation("UnknownGenerator", ci, f"letter {ev[1]!r}"))
            elif tag == "cross":
                slots.setdefault(ev[1], Counter())[ev[2]] += 1
            elif ev not in _QUARTER_TURNS:
                out.append(Violation("UnknownEvent", ci, f"event {ev!r}"))
            elif tag == "cusp" and diagram.mode == SMOOTH:
                out.append(Violation("CuspInSmoothMode", ci, "cusp event present"))
    for cid, counter in sorted(slots.items()):
        if counter[1] != 1 or counter[2] != 1 or set(counter) - {1, 2}:
            out.append(
                Violation("UnpairedCrossing", None, f"crossing {cid}: slots {dict(counter)}")
            )
    for ci in range(len(diagram.components)):
        try:
            fiber_degree(diagram, ci)
        except NonIntegralTurning:
            out.append(Violation("NonIntegralTurning", ci, f"turning {raw_turning(diagram, ci)}"))
    return out


# ----------------------------------------------------------------------
# turning and fiber degree


def _turning(diagram: Diagram, component: int) -> tuple[int, int]:
    """The component's turning number as an integer numerator over 4g on a
    closed surface of genus g >= 1, over 4 elsewhere: its fixed events'
    quarter turns plus, on such a closed surface, chi/4g per polygon side."""
    comp = diagram.components[component]
    surface = diagram.surface
    quarters = sum(_QUARTER_TURNS.get(ev, 0) for ev in comp)
    if not (surface.is_closed and surface.genus):
        return quarters, 4
    sides = sum(1 for ev in comp if ev[0] == "edge")
    return quarters * surface.genus + sides * surface.euler_char, 4 * surface.genus


def raw_turning(diagram: Diagram, component: int) -> Fraction:
    """The component's turning number."""
    return Fraction(*_turning(diagram, component))


def fiber_degree(diagram: Diagram, component: int) -> int:
    """Unreduced fiber degree of the component's lift: its turning number
    times the mode's fiber turns per tangent turn.  Raises NonIntegralTurning
    unless that is an integer: the one integrality rule, in both modes."""
    numerator, denominator = _turning(diagram, component)
    numerator *= FIBER_UNIT[diagram.mode][1]
    fiber, rest = divmod(numerator, denominator)
    if rest:
        fiber = Fraction(numerator, denominator)
        raise NonIntegralTurning(f"component {component}: fiber degree {fiber} is not an integer")
    return fiber


# ----------------------------------------------------------------------
# shadow words


def shadow_word(diagram: Diagram, component: int) -> str:
    """Free homotopy class of the component's shadow: the edge letters in
    cyclic order, freely and cyclically reduced (compact word encoding)."""
    tokens = [ev[1] for ev in diagram.components[component] if ev[0] == "edge"]
    return cyclic_reduce(diagram.surface.encode(tokens))


# ----------------------------------------------------------------------
# text format

_TOKEN_RES = {
    "cross": re.compile(r"^X([A-Za-z0-9]+)\.([12])$"),
    "edge": re.compile(r"^([abd][0-9]+)('?)$"),
}

_FIXED_TOKENS = {tok: ev for tok, ev, _ in FIXED_EVENTS}
_TOKEN_OF_FIXED = {ev: tok for tok, ev, _ in FIXED_EVENTS}


def event_token(ev: Event) -> str:
    if ev[0] == "edge":
        return ev[1]
    if ev[0] == "cross":
        return f"X{ev[1]}.{ev[2]}"
    return _TOKEN_OF_FIXED[ev]


def parse_event(tok: str, surface: Surface, line: int) -> Event:
    if tok in _FIXED_TOKENS:
        return _FIXED_TOKENS[tok]
    m = _TOKEN_RES["cross"].match(tok)
    if m:
        return cross(m.group(1), int(m.group(2)))
    m = _TOKEN_RES["edge"].match(tok)
    if m:
        base = m.group(1)
        if base not in surface.generator_names:
            raise DiagramSyntaxError(f"unknown generator {tok!r}", line)
        return edge(base + m.group(2))
    raise DiagramSyntaxError(f"bad event token {tok!r}", line)


_BUNDLE_TOKENS = "UT|PT|TRIVIAL"  # no CUSTOM: see bundle_token
_SURFACE_RE = re.compile(r"^surface\s+genus=(\d+)\s+boundary=(\d+)$")
_BUNDLE_RE = re.compile(rf"^bundle\s+({_BUNDLE_TOKENS})$")


def bundle_token(bundle: CircleBundle) -> str:
    """The bundle's token in the text format; a custom bundle has none, since
    its Euler number would not survive the round trip."""
    if bundle.kind is BundleKind.CUSTOM:
        raise ValueError(f"{bundle} with Euler number {bundle.euler_number} has no bundle token")
    return bundle.kind.value


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def parse(text: str) -> tuple[Diagram, CircleBundle]:
    """Parse the diagram file format; returns the diagram and its bundle.
    Extra annotation lines (twist:/fix:/corner:) are rejected here; use
    lifting.parse_twisted_shadow for twisted-shadow files."""
    diagram, bundle, extras = _parse_with_annotations(text)
    if extras:
        lineno, line = extras[0]
        raise DiagramSyntaxError(f"unexpected annotation {line.split(':')[0]!r}", lineno)
    return diagram, bundle


def _parse_with_annotations(text: str):
    lines = list(_content_lines(text))
    if not lines:
        raise DiagramSyntaxError("empty input")
    lineno, line = lines[0]
    m = _SURFACE_RE.match(line)
    if not m:
        raise DiagramSyntaxError("expected 'surface genus=<g> boundary=<k>'", lineno)
    surface = Surface(int(m.group(1)), int(m.group(2)))
    if len(lines) < 2:
        raise DiagramSyntaxError("missing bundle line", lineno)
    lineno, line = lines[1]
    m = _BUNDLE_RE.match(line)
    if not m:
        raise DiagramSyntaxError(f"expected 'bundle <{_BUNDLE_TOKENS}>'", lineno)
    bundle = bundle_for_token(m.group(1), surface)
    mode = MODE_FOR_KIND[bundle.kind]

    components: list[tuple[Event, ...]] = []
    extras: list[tuple[int, str]] = []
    seen_slots: set[tuple[str, int]] = set()
    for lineno, line in lines[2:]:
        if line.startswith("comp:"):
            events = []
            for tok in line[len("comp:") :].split():
                ev = parse_event(tok, surface, lineno)
                if ev[0] == "cross":
                    key = (ev[1], ev[2])
                    if key in seen_slots:
                        raise DiagramSyntaxError(
                            f"duplicate crossing slot X{ev[1]}.{ev[2]}", lineno
                        )
                    seen_slots.add(key)
                events.append(ev)
            components.append(tuple(events))
        elif any(line.startswith(p) for p in ("twist:", "fix:", "corner:")):
            extras.append((lineno, line))
        else:
            raise DiagramSyntaxError(f"unrecognized line {line!r}", lineno)
    diagram = Diagram(surface, mode, tuple(components))
    return diagram, bundle, extras


def serialize(diagram: Diagram, bundle: CircleBundle) -> str:
    lines = [
        f"surface genus={diagram.surface.genus} boundary={diagram.surface.boundary}",
        f"bundle {bundle_token(bundle)}",
    ]
    for comp in diagram.components:
        lines.append(("comp: " + " ".join(event_token(ev) for ev in comp)).rstrip())
    return "\n".join(lines) + "\n"
