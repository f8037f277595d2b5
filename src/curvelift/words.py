"""Word machinery for free and closed surface groups.

Words are compact strings, one char per letter, uppercase = inverse.  The
closed-surface word problem is solved by Dehn's greedy algorithm: any
freely reduced trivial word contains more than half of a cyclic rotation of
the relator (Greendlinger), so repeatedly replacing such subwords by the
shorter complement terminates at the empty word exactly for trivial input.
A bounded surface's group is free on every generator but the last boundary
letter d_k, which the polygon relation eliminates:
d_k = (prod [a_i, b_i] d_1 ... d_{k-1})^-1.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import UnsupportedSurface
from .surfaces import Surface


def inverse_word(w: str) -> str:
    return w[::-1].swapcase()


def free_reduce(w: str) -> str:
    out: list[str] = []
    for ch in w:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def cyclic_reduce(w: str) -> str:
    return _trim(free_reduce(w))


def _join(left: str, right: str) -> str:
    """free_reduce(left + right) for freely reduced left and right: only the
    letters meeting at the junction can cancel."""
    k, n = 0, min(len(left), len(right))
    while k < n and left[-1 - k] == right[k].swapcase():
        k += 1
    return left[: len(left) - k] + right[k:]


def _trim(w: str) -> str:
    """Cyclic reduction of a freely reduced word: drop cancelling ends."""
    k = 0
    while len(w) - 2 * k >= 2 and w[k] == w[-1 - k].swapcase():
        k += 1
    return w[k : len(w) - k]


def _rotations(w: str) -> list[str]:
    return [w[i:] + w[:i] for i in range(len(w))]


def _relator_rotations(surface: Surface) -> list[str]:
    rel = surface.relator()
    assert rel is not None
    rots = _rotations(rel) + _rotations(inverse_word(rel))
    return sorted(set(rots))


def _dehn_step(w: str, rotations: list[str], cyclic: bool) -> str | None:
    """One Dehn replacement: find a subword that is more than half of some
    relator rotation and swap it for the inverse of the complement.  Returns
    the new word, or None when no replacement applies.

    w is freely reduced (cyclically reduced when cyclic), and so is every
    piece of a relator rotation, so only the splice can cancel: the result
    joins the pieces at their junctions instead of reducing the whole word."""
    if not rotations:
        return None
    length = len(rotations[0])
    half = length // 2
    haystack = w + w if cyclic else w
    limit = len(w) if cyclic else max(len(w) - half, 0)
    for rot in rotations:
        probe = rot[: half + 1]
        start = haystack.find(probe)
        if 0 <= start < limit:
            # extend the match greedily along the rotation
            m = half + 1
            while (
                m < length
                and start + m < len(haystack)
                and (not cyclic or m < len(w))
                and haystack[start + m] == rot[m]
            ):
                m += 1
            replacement = inverse_word(rot[m:])
            if cyclic:
                rotated = w[start:] + w[:start]
                return _trim(_join(replacement, rotated[m:]))
            return _join(_join(w[:start], replacement), w[start + m :])
        # no occurrence of this rotation's long prefix; try the next one
    return None


def eliminate_last_boundary(word: str, surface: Surface) -> str:
    """word with d_k written in the other generators; a closed surface has none."""
    if surface.is_closed:
        return word
    rest = surface.boundary_word()[:-1]
    d = surface.generator_chars[-1]
    return word.translate({ord(d): inverse_word(rest), ord(d.upper()): rest})


def _dehn(word: str, surface: Surface, cyclic: bool) -> str:
    if surface.is_closed and surface.genus <= 1:
        raise UnsupportedSurface("Dehn's algorithm needs a closed surface of genus >= 2 "
                                 "(or a bounded surface, whose group is free)")
    rotations = _relator_rotations(surface) if surface.is_closed else []  # bounded: free
    word = eliminate_last_boundary(word, surface)
    w = cyclic_reduce(word) if cyclic else free_reduce(word)
    while (nxt := _dehn_step(w, rotations, cyclic)) is not None:
        w = nxt
    return w


def dehn_reduce(word: str, surface: Surface) -> str:
    """Dehn-reduced form: free reduction for free groups (on a bounded
    surface after eliminating d_k); for closed genus >= 2, greedy
    >half-relator replacement until none applies."""
    return _dehn(word, surface, cyclic=False)


def is_trivial(word: str, surface: Surface) -> bool:
    return dehn_reduce(word, surface) == ""


def cyclic_dehn_reduce(word: str, surface: Surface) -> str:
    """Cyclic-word variant; the result is well defined up to rotation."""
    return _dehn(word, surface, cyclic=True)


def least_rotation(w: str | bytes, least: str | int | None = None) -> tuple[str | bytes, int, int]:
    """(best, r, p): the least rotation of w, its first start and the period of
    its starts r, r + p, ... below len(w) (r = 0 and p = 1 for the empty word).
    Only rotations starting at the least letter are built; a second start ends
    the scan.  least, if given, is w's least letter, or a letter not in w."""
    n, ww = len(w), w + w
    if least is None or (r := w.find(least)) < 0:
        if not w:
            return w, 0, 1
        r = w.find(least := min(w))
    best, first = ww[r : r + n], r
    while (r := w.find(least, r + 1)) != -1:
        rotation = ww[r : r + n]
        if rotation < best:
            best, first = rotation, r
        elif rotation == best:
            return best, first, r - first
    return best, first, n


def conjugate_classes_equal(w1: str, w2: str, surface: Surface) -> bool:
    """Compare free-homotopy classes up to orientation flip by their
    conjugacy class keys."""
    return conjugacy_class_key(w1, surface) == conjugacy_class_key(w2, surface)


def conjugacy_class_key(word: str, surface: Surface) -> str:
    """Canonical representative used for multiset comparison of shadow
    classes (orientation-flip symmetric)."""
    r = cyclic_dehn_reduce(word, surface)
    return min(least_rotation(r)[0], least_rotation(inverse_word(r))[0])


# ----------------------------------------------------------------------
# exponent-sum obstruction for normal closures


class GroupElementExpr(namedtuple("GroupElementExpr", "w factors")):
    """Product prod_j g_j^{-1} w^{eps_j} g_j of conjugated powers of w."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, w: str, factors: tuple[tuple[str, int], ...]):
        self = tuple.__new__(cls, (w, factors))
        if any(eps not in (1, -1) for _, eps in self.factors):
            raise ValueError("exponents must be +-1")
        return self

    def product_word(self) -> str:
        parts = []
        for g, eps in self.factors:
            core = self.w if eps == 1 else inverse_word(self.w)
            parts.append(inverse_word(g) + core + g)
        return free_reduce("".join(parts))


def exponent_sum(expr: GroupElementExpr) -> int:
    return sum(eps for _, eps in expr.factors)


CONSISTENT = "ConsistentWithLemma"
VIOLATES = "ViolatesLemma"


def powersum_check(expr: GroupElementExpr, surface: Surface) -> str:
    """A trivial product of conjugates of a nontrivial w forces the exponent
    sum to vanish; report a violation only if that fails (it never should)."""
    if is_trivial(expr.w, surface):
        return CONSISTENT
    if exponent_sum(expr) == 0:
        return CONSISTENT
    if is_trivial(expr.product_word(), surface):
        return VIOLATES
    return CONSISTENT
