"""Shared generators and independent oracles for the test suite."""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from curvelift import (
    Diagram,
    Surface,
    applicable_moves,
    apply_move,
    canonical_key,
    free_reduce,
    inverse_word,
)
from curvelift.diagrams import CUSP_SMOOTH, SMOOTH, cross, cusp, edge, kink, qturn
from curvelift.moves import _code_table
from curvelift.words import least_rotation


def det_fraction(m) -> Fraction:
    """Independent determinant oracle: fraction-free only in spirit — plain
    Gaussian elimination over exact rationals."""
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if a[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        for r in range(col + 1, n):
            f = a[r][col] * inv
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def determinantal_invariant_factors(m) -> list[int]:
    """Independent invariant-factor oracle: d_k = D_k / D_(k-1), where D_k is
    the gcd of every k x k minor (det_fraction) and D_0 = 1; d_k = 0 once
    D_k = 0."""
    rows, cols = len(m), len(m[0])
    out, prev = [], 1
    for k in range(1, min(rows, cols) + 1):
        dk = 0
        for r in itertools.combinations(range(rows), k):
            for c in itertools.combinations(range(cols), k):
                dk = math.gcd(dk, int(det_fraction([[m[i][j] for j in c] for i in r])))
        out.append(dk // prev if prev else 0)
        prev = dk
    return out


def random_matrix(rng, max_dim=8, lo=-50, hi=50):
    rows = rng.randint(1, max_dim)
    cols = rng.randint(1, max_dim)
    return [[rng.randint(lo, hi) for _ in range(cols)] for _ in range(rows)]


def random_word(rng, surface: Surface, length: int) -> str:
    chars = surface.generator_chars
    out = []
    for _ in range(length):
        ch = rng.choice(chars)
        out.append(ch.upper() if rng.random() < 0.5 else ch)
    return "".join(out)


# ----------------------------------------------------------------------
# Dehn's algorithm


def _reference_dehn(w: str, surface: Surface, cyclic: bool) -> str:
    """Greedy Dehn loop with a full free (cyclic) reduction of the whole word
    after every replacement; rotations first, then the first occurrence."""
    rel = surface.relator()
    rotations = sorted({x[i:] + x[:i] for x in (rel, inverse_word(rel)) for i in range(len(rel))})
    half = len(rel) // 2
    while True:
        haystack = w + w if cyclic else w
        limit = len(w) if cyclic else max(len(w) - half, 0)
        for rot in rotations:
            start = haystack.find(rot[: half + 1])
            if 0 <= start < limit:
                m = half + 1
                while (
                    m < len(rel)
                    and start + m < len(haystack)
                    and (not cyclic or m < len(w))
                    and haystack[start + m] == rot[m]
                ):
                    m += 1
                if cyclic:
                    rotated = w[start:] + w[:start]
                    w = _reference_cyclic_reduce(inverse_word(rot[m:]) + rotated[m:])
                else:
                    w = free_reduce(w[:start] + inverse_word(rot[m:]) + w[start + m :])
                break
        else:
            return w


def _reference_cyclic_reduce(w: str) -> str:
    w = free_reduce(w)
    while len(w) >= 2 and w[0] == w[-1].swapcase():
        w = w[1:-1]
    return w


def reference_dehn_reduce(word: str, surface: Surface) -> str:
    """Oracle for words.dehn_reduce on a closed surface of genus >= 2."""
    return _reference_dehn(free_reduce(word), surface, cyclic=False)


def reference_cyclic_dehn_reduce(word: str, surface: Surface) -> str:
    """Oracle for words.cyclic_dehn_reduce on a closed surface of genus >= 2."""
    return _reference_dehn(_reference_cyclic_reduce(word), surface, cyclic=True)


# ----------------------------------------------------------------------
# random diagrams


def _event_turning(surface: Surface, ev) -> Fraction:
    """One event's row of the table in docs/turning_model.md."""
    if ev[0] == "qturn":
        return Fraction(ev[1], 4)
    if ev[0] == "kink":
        return Fraction(ev[1])
    if ev[0] == "cusp":
        return Fraction(ev[1], 2)
    if ev[0] == "edge":  # chi/4g on a closed surface of genus g >= 1, else 0
        g = surface.genus
        return Fraction(surface.euler_char, 4 * g) if surface.is_closed and g else Fraction(0)
    return Fraction(0)


def reference_turning(surface: Surface, comp) -> Fraction:
    """A component's turning number, added up event by event in Fractions."""
    return sum((_event_turning(surface, ev) for ev in comp), Fraction(0))


def random_diagram(
    rng,
    surface: Surface,
    mode: str = SMOOTH,
    n_components: int = 1,
    max_loose_events: int = 6,
    max_crossings: int = 2,
    allow_loops: bool = True,
) -> Diagram:
    """Random valid diagram: paired crossings, even cusp counts per component
    (cusp-smooth mode), turning padded to the mode's integrality grid, first
    with polygon sides until it is quarter-integral (a side turns by a third
    on closed genus 3, for one), then with quarter turns.  Where every side
    turns by a quarter turn multiple (closed genus <= 2, bounded surfaces)
    no side is added and no random number is drawn for it."""
    comps: list[list] = [[] for _ in range(n_components)]
    names = surface.generator_names
    for comp in comps:
        for _ in range(rng.randint(0, max_loose_events)):
            roll = rng.random()
            if roll < 0.45 and names:
                name = rng.choice(names)
                comp.append(edge(name + ("'" if rng.random() < 0.5 else "")))
            elif roll < 0.75 or not allow_loops:
                comp.append(qturn(rng.choice((1, -1))))
            elif mode == SMOOTH:
                comp.append(kink(rng.choice((1, -1))))
            else:
                sign = rng.choice((1, -1))
                comp.extend([cusp(sign), cusp(sign)])
    for cid in range(1, rng.randint(0, max_crossings) + 1):
        for slot in (1, 2):
            comp = comps[rng.randrange(n_components)]
            comp.insert(rng.randint(0, len(comp)), cross(str(cid), slot))
    # pad each component's turning onto the integrality grid
    grid = 4 if mode == SMOOTH else 2
    for comp in comps:
        while (reference_turning(surface, comp) * 4).denominator != 1:
            name = rng.choice(names) + ("'" if rng.random() < 0.5 else "")
            comp.insert(rng.randint(0, len(comp)), edge(name))
        total = reference_turning(surface, comp)
        deficit = int((-total * 4)) % grid
        for _ in range(deficit):
            comp.insert(rng.randint(0, len(comp)), qturn(1))
    return Diagram(surface, mode, tuple(tuple(c) for c in comps))


def random_shadow_diagram(rng, surface: Surface, mode: str, **kw) -> Diagram:
    """Kink/cusp-free diagram usable as a TwistedShadow base."""
    return random_diagram(rng, surface, mode, allow_loops=False, **kw)


# ----------------------------------------------------------------------
# canonical keys


def reference_canonical_transform(diagram: Diagram):
    """Brute-force oracle for moves.canonical_transform, on event tuples:
    (key, perm, rots) least over every component order that sorts the
    components' least id-blind rotations and every choice of least id-blind
    rotations, where key lists the rotated components with each crossing id
    replaced by its first-occurrence index."""
    comps = diagram.components

    def blind(comp):
        return tuple(("cross", None, ev[2]) if ev[0] == "cross" else ev for ev in comp)

    rotations = [[c[r:] + c[:r] for r in range(max(len(c), 1))] for c in comps]
    least = [min(map(blind, rots)) for rots in rotations]
    cands = [
        [r for r, rot in enumerate(rots) if blind(rot) == low]
        for rots, low in zip(rotations, least)
    ]
    best = None
    for perm in itertools.permutations(range(len(comps))):
        if [least[ci] for ci in perm] != sorted(least):
            continue
        for rots in itertools.product(*(cands[ci] for ci in perm)):
            ids: dict = {}
            key = tuple(
                tuple(
                    ("cross", ids.setdefault(ev[1], len(ids)), ev[2]) if ev[0] == "cross" else ev
                    for ev in rotations[ci][r]
                )
                for ci, r in zip(perm, rots)
            )
            best = min(best or (key, perm, rots), (key, perm, rots))
    return best


def _reference_relabel(comp, blind, r, ids: dict) -> str:
    """comp rotated left by r: its blind string with each crossing recoded by
    its id's first-occurrence index i in ids as chr(64 + 2 * i + slot - 1).
    Crossings code lowest, so a least rotation not starting with one has none."""
    if blind[:1] > "\x01":
        return blind
    return "".join([
        ch if ch > "\x01" else chr(64 + 2 * ids.setdefault(ev[1], len(ids)) + ord(ch))
        for ch, ev in zip(blind, comp[r:] + comp[:r])
    ])


def reference_block_transform(diagram: Diagram):
    """Oracle for moves.canonical_transform's exact (key, perm, rots): its
    reading rule run on event tuples, one event at a time.  Each component's
    blind string codes its events by the surface's table; a block is read from
    each start (a component with the block's least blind string, at a least
    rotation), each next component beginning at the unread visit of the
    least-numbered crossing read so far; a block takes its least (strs, perm,
    rots) reading, and several blocks are sorted."""
    comps, code = diagram.components, _code_table(diagram.surface).__getitem__
    blinds = ["".join(map(code, comp)) for comp in comps]
    visits = {}  # (crossing id, slot) -> (component, position)
    for ci, comp in enumerate(comps):
        for p, ev in enumerate(comp):
            if ev[0] == "cross" and visits.setdefault(ev[1:], (ci, p)) != (ci, p):
                raise ValueError(f"crossing {ev[1]} slot {ev[2]} is visited twice")

    def read(ci, r):
        reading, ids, unread = [], {}, []
        while True:
            n, blind = len(ids), blinds[ci]
            reading.append((_reference_relabel(comps[ci], blind[r:] + blind[:r], r, ids), ci, r))
            # the unread visits of the crossings numbered so far, in number order
            unread += (visits.get((x, s)) for x in list(ids)[n:] for s in (1, 2))
            unread = [v for v in unread if v and v[0] != ci]
            if not unread:
                return tuple(zip(*reading))
            ci, r = unread[0]

    lows = [least_rotation(blind) for blind in blinds]  # (least string, start, period)
    blocks, done = [], set()
    for ci in sorted(range(len(comps)), key=lambda c: lows[c][0]):
        if ci not in done:  # the least index with its block's least string: starts[0]
            first = read(ci, lows[ci][1])
            done.update(first[1])
            starts = [(c, r) for c in sorted(first[1]) if lows[c][0] == lows[ci][0]
                      for r in range(lows[c][1], len(blinds[c]) or 1, lows[c][2])]
            blocks.append(min([first] + [read(c, r) for c, r in starts[1:]]))
    if len(blocks) == 1:
        return blocks[0]
    strs, perms, rots = zip(*sorted(blocks)) if blocks else ((), (), ())
    return strs, sum(perms, ()), sum(rots, ())


# ----------------------------------------------------------------------
# move sites on event tuples


_REF_STABS = {SMOOTH: ("lr", "rl"), CUSP_SMOOTH: ("ud", "du")}  # the catalogue lists the first
_REF_VARIANTS = {
    (kink(1), kink(-1)): "lr", (kink(-1), kink(1)): "rl",
    (cusp(1), cusp(-1)): "ud", (cusp(-1), cusp(1)): "du",
}
_REF_LOOPS = {SMOOTH: ("kink",), CUSP_SMOOTH: ("kink", "cusp")}


def _ref_pair(d: Diagram, site) -> tuple:
    ci, p = site
    comp = d.components[ci]
    return comp[p], comp[(p + 1) % len(comp)]


def _ref_spots(d: Diagram, sites) -> set:
    return {(ci, q) for ci, p in sites for q in (p, (p + 1) % len(d.components[ci]))}


def _ref_is_crossing_pair(d: Diagram, site) -> bool:
    a, b = _ref_pair(d, site)
    return a[0] == b[0] == "cross" and a[1] != b[1]


def _ref_fits(d: Diagram, kind: str, site) -> bool:
    """Whether a well-formed site of a local kind fits its pattern."""
    if kind == "destab":
        return _REF_VARIANTS.get(_ref_pair(d, site)) in _REF_STABS[d.mode]
    if kind == "kink_slide":  # a kink/cusp next to a crossing or edge event
        (a, b), loops = _ref_pair(d, site), _REF_LOOPS[d.mode]
        return (a[0] in loops) != (b[0] in loops) and {a[0], b[0]} <= {"kink", "cusp", "cross", "edge"}
    pairs = [_ref_pair(d, s) for s in site]
    if kind == "r2_remove":  # [x, y] against [y, x] with complementary slots
        (a, b), (c, e) = pairs
        return a[1] == e[1] and b[1] == c[1] and a[2] != e[2] and b[2] != c[2]
    ids = Counter(ev[1] for pair in pairs for ev in pair)  # r3: a triangle
    return len(ids) == 3 and all(v == 2 for v in ids.values())


def reference_sites(d: Diagram) -> dict:
    """Oracle for the sites of each catalogue kind, as the move table listed
    them on event tuples before it read codes: every gap or pair of gaps, and
    every position or combination of disjoint crossing pairs that fits the
    kind's pattern, in order."""
    gaps = [(ci, p) for ci, comp in enumerate(d.components) for p in range(max(len(comp), 1))]
    positions = [(ci, p) for ci, comp in enumerate(d.components) if len(comp) >= 2 for p in range(len(comp))]
    crossings = [s for s in positions if _ref_is_crossing_pair(d, s)]
    sites = {"stab": [gap + _REF_STABS[d.mode][:1] for gap in gaps],
             "r2_insert": [g + h for g in gaps for h in gaps]}
    for kind in ("destab", "kink_slide"):
        sites[kind] = [s for s in positions if _ref_fits(d, kind, s)]
    for kind, k in (("r2_remove", 2), ("r3", 3)):
        sites[kind] = [c for c in itertools.combinations(crossings, k)
                       if len(_ref_spots(d, c)) == 2 * k and _ref_fits(d, kind, c)]
    return sites


def _ref_no_gaps(d: Diagram, gaps) -> bool:
    comps = d.components
    return not all(type(ci) is type(p) is int and 0 <= ci < len(comps) and 0 <= p <= len(comps[ci])
                   for ci, p in gaps)


def _ref_no_pair(d: Diagram, site) -> bool:
    ci, p = site
    return _ref_no_gaps(d, [site]) or len(d.components[ci]) <= max(p, 1)


def _ref_match(d: Diagram, move) -> bool:
    site = move.site
    if move.kind == "stab":
        ci, p, variant = site
        return variant in _REF_STABS[d.mode] and not _ref_no_gaps(d, [(ci, p)])
    if move.kind == "r2_insert":
        c1, p1, c2, p2 = site[:4]
        return site[4:] in ((), ("12",), ("21",), ("22",)) and not _ref_no_gaps(d, ((c1, p1), (c2, p2)))
    if move.kind == "transvection":
        return bool(site) and not _ref_no_gaps(d, [(ci, p) for _, _, sites in site for ci, p, _ in sites])
    if move.kind in ("destab", "kink_slide"):
        return not _ref_no_pair(d, site) and _ref_fits(d, move.kind, site)
    if move.kind in ("r2_remove", "r3"):
        return (not any(_ref_no_pair(d, s) or not _ref_is_crossing_pair(d, s) for s in site)
                and len(_ref_spots(d, site)) == 2 * len(site) and _ref_fits(d, move.kind, site))
    return False


def reference_accepts(d: Diagram, move) -> bool:
    """Oracle for whether apply_move accepts move on d: each kind's match as
    it ran on event tuples, a site of the wrong shape rejected."""
    try:
        return type(move.kind) is str and _ref_match(d, move)
    except (TypeError, ValueError):
        return False


# ----------------------------------------------------------------------
# equivalence search


def reference_distance(d1: Diagram, d2: Diagram, k: int) -> int | None:
    """Oracle for moves.equivalent_bounded: plain breadth-first search from
    d1 over every move applicable_moves lists, diagrams compared by
    canonical_key, with no state budget, size cap or meet.  The least number
    of moves that reach d2, or None when it is more than k."""
    target = canonical_key(d2)
    layer, seen = {canonical_key(d1): d1}, set()
    for depth in range(k):
        if target in layer:
            return depth
        seen |= layer.keys()
        children = {}
        for diagram in layer.values():
            for move in applicable_moves(diagram):
                child = apply_move(diagram, move)
                children.setdefault(canonical_key(child), child)
        layer = {key: child for key, child in children.items() if key not in seen}
    return k if target in layer else None


# ----------------------------------------------------------------------
# Britton reduction


def reference_britton_reduce(hw):
    """Oracle for hnn.britton_reduce: remove the first pinch and rescan the
    whole word from the start, until no pinch is left."""
    ext = hw.extension
    words, signs = list(hw.base_words), list(hw.signs)
    while True:
        for i in range(len(signs) - 1):
            mid = words[i + 1]
            if signs[i] == 1 and signs[i + 1] == -1 and ext.supported(mid, ext.a_letters):
                image = ext.phi_word(mid)
            elif signs[i] == -1 and signs[i + 1] == 1 and ext.supported(mid, ext.b_letters):
                image = ext.phi_inverse_word(mid)
            else:
                continue
            words[i : i + 3] = [free_reduce(words[i] + image + words[i + 2])]
            del signs[i : i + 2]
            break
        else:
            return type(hw)(ext, tuple(words), tuple(signs))
