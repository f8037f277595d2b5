"""Surfaces, fundamental polygons, and circle bundles over them.

A surface of genus g with k boundary components carries the standard
generating set a1, b1, ..., ag, bg, d1, ..., dk.  Words in the fundamental
group are stored as compact strings with one character per letter:
lowercase = generator, uppercase = its inverse.  The character 't' is
reserved for the fiber generator of a circle bundle, so surface generators
draw from the remaining alphabet.
"""

from __future__ import annotations

import functools
from collections import namedtuple
from enum import Enum

# Alphabet for surface generators; 't' is reserved for the bundle fiber.
_LETTER_POOL = "abcdefghijklmnopqrsuvwxyz"
FIBER_CHAR = "t"


class Surface(namedtuple("Surface", "genus boundary")):
    """Closed or bounded orientable surface with its fundamental polygon data."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, genus: int, boundary: int = 0):
        self = tuple.__new__(cls, (genus, boundary))
        if self.genus < 0 or self.boundary < 0:
            raise ValueError("genus and boundary count must be non-negative")
        if 2 * self.genus + self.boundary > len(_LETTER_POOL):
            raise ValueError("surface too large for the one-char letter encoding")
        return self

    # ------------------------------------------------------------------
    # basic invariants

    @property
    def euler_char(self) -> int:
        return 2 - 2 * self.genus - self.boundary

    @property
    def is_closed(self) -> bool:
        return self.boundary == 0

    # ------------------------------------------------------------------
    # generators and the one-char word codec

    @property
    def generator_names(self) -> tuple[str, ...]:
        names = []
        for i in range(1, self.genus + 1):
            names.append(f"a{i}")
            names.append(f"b{i}")
        for j in range(1, self.boundary + 1):
            names.append(f"d{j}")
        return tuple(names)

    @property
    def generator_chars(self) -> str:
        return _LETTER_POOL[: 2 * self.genus + self.boundary]

    def char_of(self, name: str) -> str:
        """One-char encoding of a generator token, prime suffix = inverse."""
        return _codec(self)[name]

    def name_of(self, ch: str) -> str:
        idx = self.generator_chars.index(ch.lower())
        name = self.generator_names[idx]
        return name + "'" if ch.isupper() else name

    def encode(self, tokens) -> str:
        """Token sequence (or space-separated string) -> compact word."""
        if isinstance(tokens, str):
            tokens = tokens.split()
        return "".join(map(_codec(self).__getitem__, tokens))

    def decode(self, word: str) -> tuple[str, ...]:
        return tuple(self.name_of(ch) for ch in word)

    # ------------------------------------------------------------------
    # fundamental polygon

    def boundary_word(self) -> str:
        """Polygon boundary word prod [a_i, b_i] prod d_j as a compact word."""
        chars = self.generator_chars
        out = []
        for i in range(self.genus):
            a, b = chars[2 * i], chars[2 * i + 1]
            out += [a, b, a.upper(), b.upper()]
        out += list(chars[2 * self.genus :])
        return "".join(out)

    def relator(self) -> str | None:
        """Surface-group relator (closed case), None for free groups."""
        if not self.is_closed or self.genus == 0:
            return None
        return self.boundary_word()

    def __str__(self) -> str:
        if self.is_closed:
            return f"Sigma_{self.genus}"
        return f"Sigma_{{{self.genus},{self.boundary}}}"


class _Codec(dict):
    """A surface's generator tokens, primed or not, to their one-char codes."""

    def __init__(self, surface: Surface):
        pairs = zip(surface.generator_names, surface.generator_chars)
        super().__init__((n + p, ch.upper() if p else ch) for n, ch in pairs for p in ("", "'"))
        self.surface = surface

    def __missing__(self, name):
        base = name[:-1] if name.endswith("'") else name
        raise KeyError(f"unknown generator {base!r} for {self.surface}")


_codec = functools.cache(_Codec)  # one codec per surface, built on first use


# ----------------------------------------------------------------------
# group presentations


class GroupPresentation(namedtuple("GroupPresentation", "generators relators names")):
    """Finite presentation; generators are one-char symbols, relators are
    compact words (uppercase = inverse), names are (char, display name) pairs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, generators: tuple[str, ...], relators: tuple[str, ...], names=()):
        self = tuple.__new__(cls, (generators, relators, names))
        gens = set(self.generators)
        for rel in self.relators:
            if any(ch.lower() not in gens for ch in rel):
                raise ValueError(f"relator {rel!r} uses undeclared generators")
        return self

    def display_name(self, ch: str) -> str:
        table = dict(self.names)
        base = table.get(ch.lower(), ch.lower())
        return base + "'" if ch.isupper() else base

    def display_word(self, word: str) -> str:
        return " ".join(self.display_name(ch) for ch in word) or "1"


def exponent_vector(word: str, generators: tuple[str, ...]) -> list[int]:
    """The word's exponent sum on each generator: its image in the abelianization."""
    index = {g: i for i, g in enumerate(generators)}
    vec = [0] * len(generators)
    for ch in word:
        vec[index[ch.lower()]] += -1 if ch.isupper() else 1
    return vec


@functools.cache
def surface_pi1_presentation(surface: Surface) -> GroupPresentation:
    """Standard presentation of pi_1: one-relator for closed genus >= 1,
    free of rank 2g + k - 1 for bounded (last boundary generator eliminated)."""
    names = tuple(zip(surface.generator_chars, surface.generator_names))
    if surface.is_closed:
        gens = tuple(surface.generator_chars)
        rel = surface.relator()
        relators = (rel,) if rel else ()
        return GroupPresentation(gens, relators, names)
    # bounded: free on a_i, b_i, d_1..d_{k-1}
    chars = surface.generator_chars
    gens = tuple(chars[: 2 * surface.genus + surface.boundary - 1])
    return GroupPresentation(gens, (), names)


# ----------------------------------------------------------------------
# circle bundles


class BundleKind(Enum):
    UNIT_TANGENT = "UT"
    PROJECTIVE_TANGENT = "PT"
    TRIVIAL = "TRIVIAL"
    CUSTOM = "CUSTOM"


class CircleBundle(namedtuple("CircleBundle", "base kind euler_number")):
    """Oriented circle bundle over a surface, classified by its Euler number.

    Convention: e(UT(S)) = chi(S), e(PT(S)) = 2 chi(S); bundles over surfaces
    with boundary are trivial (e = 0).
    """

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, base: Surface, kind: BundleKind, euler_number: int):
        self = tuple.__new__(cls, (base, kind, euler_number))
        expected = _expected_euler(self.base, self.kind)
        if expected is not None and self.euler_number != expected:
            raise ValueError(
                f"{self.kind.value} bundle over {self.base} must have "
                f"euler number {expected}, got {self.euler_number}"
            )
        if not self.base.is_closed and self.euler_number != 0:
            raise ValueError("bundles over bounded surfaces are trivial (e = 0)")
        return self

    @classmethod
    def unit_tangent(cls, base: Surface) -> "CircleBundle":
        return cls(base, BundleKind.UNIT_TANGENT, _expected_euler(base, BundleKind.UNIT_TANGENT))

    @classmethod
    def projective_tangent(cls, base: Surface) -> "CircleBundle":
        kind = BundleKind.PROJECTIVE_TANGENT
        return cls(base, kind, _expected_euler(base, kind))

    @classmethod
    def trivial(cls, base: Surface) -> "CircleBundle":
        return cls(base, BundleKind.TRIVIAL, _expected_euler(base, BundleKind.TRIVIAL))

    @classmethod
    def custom(cls, base: Surface, euler_number: int) -> "CircleBundle":
        return cls(base, BundleKind.CUSTOM, euler_number)

    def __str__(self) -> str:
        return f"{self.kind.value}({self.base})"


def bundle_for_token(token: str, base: Surface, euler_number: int = 0) -> CircleBundle:
    """The bundle over ``base`` whose BundleKind value is ``token``; only a
    CUSTOM bundle takes ``euler_number``, the others have theirs fixed.  An
    unknown token raises ValueError."""
    kind = BundleKind(token)
    if kind is BundleKind.CUSTOM:
        return CircleBundle.custom(base, euler_number)
    return CircleBundle(base, kind, _expected_euler(base, kind))


def _expected_euler(base: Surface, kind: BundleKind) -> int | None:
    if not base.is_closed:
        return 0
    if kind is BundleKind.UNIT_TANGENT:
        return base.euler_char
    if kind is BundleKind.PROJECTIVE_TANGENT:
        return 2 * base.euler_char
    if kind is BundleKind.TRIVIAL:
        return 0
    return None


def bundle_pi1_presentation(bundle: CircleBundle) -> GroupPresentation:
    """Presentation with central fiber generator t.

    Closed base: surface generators + t, commuting relators [x, t] for every
    surface generator, and the Euler relator (boundary word) * t^{-e}.
    Bounded base: free surface presentation + t with commuting relators only.
    """
    surf_pres = surface_pi1_presentation(bundle.base)
    gens = surf_pres.generators + (FIBER_CHAR,)
    names = surf_pres.names + ((FIBER_CHAR, "t"),)
    relators = [x + FIBER_CHAR + x.upper() + FIBER_CHAR.upper() for x in surf_pres.generators]
    if bundle.base.is_closed:
        e = bundle.euler_number
        tail = FIBER_CHAR.upper() * e if e >= 0 else FIBER_CHAR * (-e)
        relators.append(bundle.base.boundary_word() + tail)
    return GroupPresentation(gens, tuple(relators), names)
