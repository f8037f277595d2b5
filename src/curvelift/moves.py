"""Move calculus on diagrams: Reidemeister moves, (de)stabilizations,
transvections, and bounded equivalence search with replayable certificates.

Conventions.  Stabilization inserts an adjacent opposite pair (left+right
kink in smooth mode, up+down cusp pair in cusp-smooth mode); single
kinks/cusps are reachable only through transvections.  Every non-transvection
move preserves the lift class; a transvection by sum a_i * gamma_i shifts the
fiber class of each component by the signed count of its declared
intersection sites and leaves the base class alone.

Sites use (component, position) coordinates; adjacency is cyclic.  A "gap"
index p in [0, n) names the insertion point before event p (gap 0 doubles as
the wrap-around gap); a move also accepts gap n, after the last event, which
the catalogue never lists.

Each move kind is written once, in the table ``_KINDS``: its growth in
events, the sites where it fits, its match (the check ``apply_move`` makes),
rewrite (the new components, by slicing and concatenation alone, so that it
splices event tuples and bytes alike), inverse (the move that undoes it, read
off the diagram it applies to) and site transport (the same move on a
reordered, rotated copy).  Sites and inverse read the diagram's code form
(below).  A local kind (destab, kink_slide, r2_remove, r3) fits exactly at
the sites it lists, so its match is membership there; a gap kind (stab,
r2_insert, transvection) matches by a gap check.  A transvection's site is
its curve data; it has no site list, inverse or transport.  An
``r2_insert`` site may end with its first strand's slot pair ("12", "21" or
"22"; absent means "11"); only the inverse of an ``r2_remove`` emits it.

The search runs on code forms from its roots to a meet.  It expands a node
kind by kind, by growth and then by name, listing a kind's sites only on
reaching it and skipping a kind whose growth passes the size cap; forward, it
tries the transvection generators whose gaps fit at growth 1, each unless its
exact growth passes the cap.  A kind's rewrite splices all of a node's
children in one pass (each piece put on first use); the search keys each off
its codes and keeps an unseen one as its parent's form and path and a (kind,
site), spliced again and given its MoveInstance only when expanded.  Only a
certificate builds diagrams.

A canonical key holds one str per component, one character per event from a
per-surface table built on first use; each block of components joined by
crossings is keyed by its least reading, so keys are exact at polynomial cost.
Keys are read off codes, bytes up to 94 crossing ids and str past them: one
component of bytes with one least rotation by _read, any other by _blocks.
_read reads through a memo that lasts one search: each id-blind string's
least rotation and each crossing sequence's renumbering table, at most _MEMO
of each, emptied when full; the tables themselves are kept per order of first
occurrence for every search.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter, namedtuple

from .diagrams import CUSP_SMOOTH, FIXED_EVENTS, SMOOTH, Diagram, cusp, edge, fiber_loops, kink, shadow_word
from .errors import InapplicableMove, ModeMismatch, UnsupportedSurface
from .lifting import lift_class
from .surfaces import CircleBundle, Surface
from .words import conjugacy_class_key, least_rotation


# ----------------------------------------------------------------------
# move instances


class MoveInstance(namedtuple("MoveInstance", "kind site", defaults=((),))):
    """A catalogued rewrite: kind (str) and site (tuple): coordinates, or a
    transvection's curve data.  Moves order by (kind, site)."""

    __slots__ = ()


STAB_VARIANTS = {
    "lr": (kink(1), kink(-1)),
    "rl": (kink(-1), kink(1)),
    "ud": (cusp(1), cusp(-1)),
    "du": (cusp(-1), cusp(1)),
}
# each mode's stabilizations; the first is the one the catalogue lists
_STABS = {SMOOTH: ("lr", "rl"), CUSP_SMOOTH: ("ud", "du")}


def _integer(x) -> int:
    if type(x) is not int:  # no bool, float or str
        raise TypeError(f"transvection weights and sites must be integers, not {x!r}")
    return x


def transvection(curves) -> MoveInstance:
    """Transvection datum: curves is a list of (word, weight, sites) with
    sites a list of (component, gap, sign) intersection records."""
    data = tuple(
        (word, _integer(weight),
         tuple((_integer(c), _integer(p), _integer(s)) for c, p, s in sites))
        for word, weight, sites in curves
    )
    for word, weight, sites in data:
        if type(word) is not str:
            raise TypeError(f"transvection words must be strings, not {word!r}")
        if weight == 0:
            raise ValueError("transvection weights must be nonzero")
        if any(s not in (1, -1) for _, _, s in sites):
            raise ValueError("intersection signs must be +-1")
    return MoveInstance("transvection", data)


def transvection_fiber_shift(move: MoveInstance, component: int) -> int:
    """Signed fiber-degree change of one component under a transvection."""
    return sum(
        weight * sign
        for _, weight, sites in move.site
        for ci, _, sign in sites
        if ci == component
    )


# ----------------------------------------------------------------------
# code forms


# codes: 0-1 id-blind crossing slots, 2-57 a table's events, from 64 numbered crossings
_CROSS0 = 64
_BYTE_IDS = 94  # forms are bytes up to 94 ids: with a child's two fresh ids, 96 fit in a byte
_BLIND = bytes(b if b < _CROSS0 else b & 1 for b in range(256))  # a crossing byte's slot code
_FIRST = bytes(b & 254 for b in range(256))  # a crossing byte's first slot
_NONCROSS = _BLIND[:_CROSS0]  # every code below the crossings'
_DROP = dict.fromkeys(range(_CROSS0))  # str.translate: drop every code below the crossings'
_LOOP_TAGS = {SMOOTH: ("kink",), CUSP_SMOOTH: ("kink", "cusp")}
# each pattern of a pair of events: the class pairs (_Codes.classes) that fit it
_PAIR_FITS = {"destab": (b"+-", b"-+"), "cross": {b"xx"},
              "kink_slide": {bytes(p) for a in b"+-l" for b in b"xe" for p in ((a, b), (b, a))}}


class _Codes(dict):
    """One character per event of a surface's alphabet, in the event tuples'
    order; a crossing's id-blind code is its slot's, below all the others.
    classes[mode] maps each code to its class for _PAIR_FITS: "+" and "-" the
    mode's stabilization loops, "l" its other loops, "q" a quarter turn, "x" a
    crossing, "e" any other event."""

    def __init__(self, surface: Surface):
        events = [edge(name + prime) for name in surface.generator_names for prime in ("", "'")]
        events += [ev for _, ev, _ in FIXED_EVENTS]
        super().__init__((ev, chr(2 + i)) for i, ev in enumerate(sorted(events)))
        self.surface, self.classes, at = surface, {}, {ord(c): ev for ev, c in self.items()}
        at = [at.get(code, ("cross",)) for code in range(256)]  # crossings from _CROSS0
        for mode, tags in _LOOP_TAGS.items():
            stabs, of = dict(zip(STAB_VARIANTS[_STABS[mode][0]], "+-")), {"cross": "x", "qturn": "q"}
            of.update(dict.fromkeys(tags, "l"))
            self.classes[mode] = "".join(stabs.get(ev) or of.get(ev[0], "e") for ev in at).encode()

    def __missing__(self, ev):
        if len(ev) == 3 and ev[0] == "cross" and ev[2] in (1, 2):
            return chr(ev[2] - 1)  # not kept: ids come and go with the diagrams
        raise ValueError(f"event {ev!r} is not in the alphabet of {self.surface}")


_code_table = functools.cache(_Codes)  # one table per surface, built on first use


def _ids(comps) -> set:
    """The crossing ids (code >> 1) in components of codes."""
    return {c >> 1 for comp in comps
            for c in (comp.translate(None, _NONCROSS) if type(comp) is bytes else map(ord, comp))
            if c >= _CROSS0}


class _Form(dict):
    """A diagram's components as rewrites splice them: event tuples (table
    None), or codes, one per event (its code in table, a crossing's 2 * id +
    slot - 1), as bytes or str.  Each piece a rewrite inserts is put the first
    time one asks for it and kept: form[variant] a stabilization pair, form[s,
    t] an R2 insertion's two strands for slots (s, t) on the two fresh ids,
    form[n] a run of n fiber loops."""

    __slots__ = ("table", "mode", "components", "one")

    def __init__(self, table: _Codes | None, mode: str, components: tuple):
        super().__init__()
        self.table, self.mode, self.components = table, mode, components
        self.one = len(components) == 1 and type(components[0]) is bytes  # what _read takes

    def put(self, events):
        if self.table is None:
            return tuple(events)
        codes = "".join([chr(2 * ev[1] + ev[2] - 1) if ev[0] == "cross" else self.table[ev] for ev in events])
        return codes.encode("latin-1") if type(self.components[0]) is bytes else codes

    def fresh(self) -> list:
        """The two least crossing ids that no crossing uses: of "1", "2", ... in
        event tuples, from _CROSS0 // 2 in codes."""
        if self.table is None:
            used = {ev[1] for comp in self.components for ev in comp if ev[0] == "cross"}
            return [str(n) for n in range(1, len(used) + 3) if str(n) not in used][:2]
        used = _ids(self.components)
        return [i for i in range(_CROSS0 >> 1, (_CROSS0 >> 1) + len(used) + 2) if i not in used][:2]

    def __missing__(self, piece):
        if type(piece) is str:
            got = self.put(STAB_VARIANTS[piece])
        elif type(piece) is int:
            got = self.put(fiber_loops(self.mode, piece))
        else:  # (x.s, y.t) and (y.3-t, x.3-s) for the two fresh ids x < y
            (s, t), (x, y) = piece, self.fresh()
            got = (self.put((("cross", x, s), ("cross", y, t))),
                   self.put((("cross", y, 3 - t), ("cross", x, 3 - s))))
        self[piece] = got
        return got


def _coded(table: _Codes, mode: str, comps) -> _Form:
    """The form of components of codes: bytes if they use at most _BYTE_IDS
    crossing ids, all below 128 (so that their codes fit a byte), else str."""
    ids = _ids(comps)
    if len(ids) <= _BYTE_IDS and max(ids, default=0) < 128:
        return _Form(table, mode, tuple(c.encode("latin-1") if type(c) is str else c for c in comps))
    return _Form(table, mode, tuple(c.decode("latin-1") if type(c) is bytes else c for c in comps))


def _code_form(diagram: Diagram) -> _Form:
    """A diagram's form in codes, crossing ids numbered on first sight across
    the components, from _CROSS0 // 2.  Raises ValueError on an unknown event."""
    table, ids = _code_table(diagram.surface), {}
    code = table.__getitem__
    return _coded(table, diagram.mode, ["".join([
        code(ev) if ev[0] != "cross" else chr(_CROSS0 + 2 * ids.setdefault(ev[1], len(ids)) + ord(code(ev)))
        for ev in comp
    ]) for comp in diagram.components])


def _as_form(diagram) -> _Form:
    """A diagram's code form, or the code form given in its place."""
    return diagram if type(diagram) is _Form else _code_form(diagram)


# ----------------------------------------------------------------------
# the move table.  sites read a code form, match(diagram, move) and inverse
# a diagram or its code form (encoding a diagram only where a kind reads
# codes); match returns None or why the move does not fit; rewrite(form,
# sites) and inverse run on fitting moves only: rewrite yields the new
# components at each site in turn (a transvection's site is its curve data),
# inverse returns the move that undoes one.


def _replaced(comps: tuple, ci: int, comp) -> tuple:
    """comps with component ci replaced by comp."""
    return comps[:ci] + (comp,) + comps[ci + 1:]


def _gaps(form: _Form) -> list:
    return [(ci, p) for ci, comp in enumerate(form.components) for p in range(max(len(comp), 1))]


def _no_gaps(diagram, gaps) -> str | None:
    comps = diagram.components
    for ci, p in gaps:
        if not (type(ci) is type(p) is int and 0 <= ci < len(comps) and 0 <= p <= len(comps[ci])):
            return "no such gap"
    return None


def _codes(form: _Form, site) -> tuple:
    """The codes of the event at a pair site and of its cyclic successor."""
    ci, p = site
    comp = form.components[ci]
    q = (p + 1) % len(comp)
    return ord(comp[p:p + 1]), ord(comp[q:q + 1])


def _classes(form: _Form, ci: int) -> bytes:
    """Component ci's classes, then its first again: a pair site (ci, p) has
    the classes [p:p + 2]."""
    comp = form.components[ci]
    if type(comp) is str:  # a code past a byte is a crossing's
        comp = bytes(min(ord(c), 255) for c in comp)
    classes = comp.translate(form.table.classes[form.mode])
    return classes + classes[:1]


def _pair_sites(form: _Form, name: str) -> list:
    """Every pair site that fits the pattern name, in order."""
    fits = _PAIR_FITS[name]
    return [(ci, p) for ci, comp in enumerate(form.components) if len(comp) >= 2
            for classes in [_classes(form, ci)] for p in range(len(comp)) if classes[p:p + 2] in fits]


def _spots(form: _Form, sites) -> set:
    """The event positions that the pair sites cover."""
    return {(ci, q) for ci, p in sites for q in (p, (p + 1) % len(form.components[ci]))}


def _crossing_pairs(form: _Form, k: int) -> list:
    """Every k disjoint crossing pairs, in order, whose ids can make a bigon
    (k = 2: both on ids x and y) or a triangle (k = 3: on x and y, x and z, y
    and z), found by indexing the crossing pairs by their ids."""
    pairs, sites = {}, _pair_sites(form, "cross")  # pairs: (least id, other id) -> their crossing pairs
    for site in sites if len(sites) >= k else ():
        a, b = _codes(form, site)
        if a >= _CROSS0 and b >= _CROSS0 and a >> 1 != b >> 1:  # two different crossings
            pairs.setdefault((min(a, b) >> 1, max(a, b) >> 1), []).append(site)
    if k == 2:
        hits = [c for group in pairs.values() for c in itertools.combinations(group, 2)]
    else:  # ids x < y < z
        hits = [tuple(sorted(c)) for (x, y), xy in pairs.items() for (w, z), xz in pairs.items()
                if w == x and z > y and (y, z) in pairs for c in itertools.product(xy, xz, pairs[y, z])]
    return [c for c in sorted(hits) if len(_spots(form, c)) == 2 * k]


def _remove_pairs(comps: tuple, sites) -> tuple:
    """comps without the events of the pair sites."""
    for ci in {ci for ci, _ in sites}:
        comp, out, last = comps[ci], comps[ci][:0], 0
        for q in sorted(q for c, p in sites if c == ci for q in (p, (p + 1) % len(comp))):
            out, last = out + comp[last:q], q + 1
        comps = _replaced(comps, ci, out + comp[last:])
    return comps


def _removed_gaps(form: _Form, sites) -> list:
    """The gap each pair site leaves in _remove_pairs' diagram; a pair across
    the wrap leaves its gap at the end."""
    removed, gaps = _spots(form, sites), []
    for ci, p in sites:
        n = len(form.components[ci])
        gaps.append(sum(1 for pos in range(p if p + 1 < n else n) if (ci, pos) not in removed))
    return gaps


def _swap_pairs(comps: tuple, sites) -> tuple:
    for ci, p in sites:
        comp = comps[ci]
        if p + 1 < len(comp):
            comp = comp[:p] + comp[p + 1:p + 2] + comp[p:p + 1] + comp[p + 2:]
        else:  # the pair across the wrap
            comp = comp[p:] + comp[1:p] + comp[:1]
        comps = _replaced(comps, ci, comp)
    return comps


def _stab_match(diagram, move: MoveInstance) -> str | None:
    ci, p, variant = move.site
    if variant not in _STABS[diagram.mode]:
        return f"no stabilization {variant!r} in {diagram.mode} mode"
    return _no_gaps(diagram, [(ci, p)])


def _stab_rewrite(form: _Form, sites):
    comps = form.components
    for ci, p, variant in sites:
        yield _replaced(comps, ci, comps[ci][:p] + form[variant] + comps[ci][p:])


def _destab_inverse(diagram, move: MoveInstance) -> MoveInstance:
    form = _as_form(diagram)
    [gap] = _removed_gaps(form, [move.site])
    (ci, p), fits = move.site, _PAIR_FITS["destab"]
    return MoveInstance("stab", (ci, gap, _STABS[form.mode][fits.index(_classes(form, ci)[p:p + 2])]))


# an r2_insert site's optional fifth entry -> the first strand's slots
_R2_SLOTS = {(): (1, 1), ("12",): (1, 2), ("21",): (2, 1), ("22",): (2, 2)}


def _r2_insert_match(diagram, move: MoveInstance) -> str | None:
    c1, p1, c2, p2 = move.site[:4]
    if move.site[4:] not in _R2_SLOTS:
        return f"bad slot entry {move.site[4:]!r}"
    return _no_gaps(diagram, ((c1, p1), (c2, p2)))


def _r2_insert_rewrite(form: _Form, sites):
    comps = form.components
    for site in sites:
        c1, p1, c2, p2 = site[:4]
        first, second = form[_R2_SLOTS[site[4:]]]
        if c1 != c2:
            two = _replaced(comps, c2, comps[c2][:p2] + second + comps[c2][p2:])
            yield _replaced(two, c1, comps[c1][:p1] + first + comps[c1][p1:])
            continue
        comp = comps[c1]  # in one gap the first strand goes in front of the second
        if p1 <= p2:
            comp = comp[:p1] + first + comp[p1:p2] + second + comp[p2:]
        else:
            comp = comp[:p2] + second + comp[p2:p1] + first + comp[p1:]
        yield comps[:c1] + (comp,) + comps[c1 + 1:]


def _r2_insert_inverse(diagram, move: MoveInstance) -> MoveInstance:
    c1, p1, c2, p2 = move.site[:4]
    same = c1 == c2  # the pairs sit where _r2_insert_rewrite puts them
    return MoveInstance("r2_remove", ((c1, p1 + 2 * (same and p2 < p1)),
                                      (c2, p2 + 2 * (same and p1 <= p2))))


def _is_bigon(form: _Form, sites) -> bool:
    """[x, y] against [y, x] with complementary slots."""
    (a, b), (c, d) = (_codes(form, site) for site in sites)
    return a ^ d == 1 and b ^ c == 1


def _r2_remove_inverse(diagram, move: MoveInstance) -> MoveInstance:
    (c1, p1), (c2, p2) = move.site
    form = _as_form(diagram)
    n = len(form.components[c1])
    if c1 == c2 and n > 4 and (p2 + 2) % n == p1:
        # the second strand runs into the first: list it first, so that the
        # inverse keeps their order in one gap when transported to a rotation
        (c1, p1), (c2, p2) = (c2, p2), (c1, p1)
    a, b = _codes(form, (c1, p1))
    gap1, gap2 = _removed_gaps(form, [(c1, p1), (c2, p2)])
    slots = f"{(a & 1) + 1}{(b & 1) + 1}"
    return MoveInstance("r2_insert", (c1, gap1, c2, gap2) + ((slots,) if slots != "11" else ()))


def _transvection_match(diagram, move: MoveInstance) -> str | None:
    if not move.site:
        return "empty transvection"
    return _no_gaps(diagram, [(ci, p) for _, _, sites in move.site for ci, p, _ in sites])


def _transvection_rewrite(form: _Form, sites):
    """Insert |weight| loops of the mode's fiber unit at each intersection
    point of a transvection's curve data: kinks in smooth mode, single cusps
    in cusp-smooth mode."""
    for curves in sites:
        comps = form.components
        loops = [(ci, p, weight * sign) for _, weight, points in curves for ci, p, sign in points]
        for ci, p, n in sorted(loops, reverse=True):
            comps = _replaced(comps, ci, comps[ci][:p] + form[n] + comps[ci][p:])
        yield comps


class _Kind(namedtuple("_Kind", "growth sites match rewrite inverse transport")):
    """growth: events added (the search tries shrinking kinds first); sites:
    code form -> every site where the kind fits, in order (none for a
    transvection, whose site is its curve data); match: the check apply_move
    makes, membership in the sites (_listed) for a local kind, a gap check
    for a gap kind; rewrite: (form, sites) -> the new components at each site
    in turn, by slicing and concatenation only, so that one rewrite serves
    codes and event tuples and the search keys a parent's children in one
    pass; inverse: (diagram or code form, move) -> the move that undoes it on
    the new diagram, None for a transvection; transport: (site, site_map) ->
    the site in an equal diagram, or None."""

    __slots__ = ()


def _exact(site) -> bool:
    """Whether every coordinate of a site, or of its pair sites, is an int."""
    return all(type(x) is int or type(x) is tuple and _exact(x) for x in site)


def _listed(diagram, move: MoveInstance) -> str | None:
    """match of a local kind: None if the move's site (a set of pair sites
    put in sorted order) is one its kind lists and every coordinate is an
    int, since True == 1 and 1.0 == 1 would pass the list test."""
    site = move.site
    if site and type(site[0]) is tuple:
        site = tuple(sorted(site))
    if _exact(site) and site in _KINDS[move.kind].sites(_as_form(diagram)):
        return None
    return "not a site where the kind fits"


_KINDS = {
    "stab": _Kind(
        2, lambda f: [gap + _STABS[f.mode][:1] for gap in _gaps(f)], _stab_match, _stab_rewrite,
        lambda f, m: MoveInstance("destab", m.site[:2]), lambda s, f: (*f(s[:2]), s[2]),
    ),
    "destab": _Kind(
        -2, lambda f: _pair_sites(f, "destab"), _listed,
        lambda f, sites: (_remove_pairs(f.components, [s]) for s in sites), _destab_inverse,
        lambda s, f: f(s),
    ),
    "kink_slide": _Kind(
        0, lambda f: _pair_sites(f, "kink_slide"), _listed,
        lambda f, sites: (_swap_pairs(f.components, [s]) for s in sites), lambda f, m: m,
        lambda s, f: f(s),
    ),
    "r2_insert": _Kind(
        4, lambda f: [gap1 + gap2 for gaps in [_gaps(f)] for gap1 in gaps for gap2 in gaps],
        _r2_insert_match, _r2_insert_rewrite, _r2_insert_inverse,
        lambda s, f: (*f(s[:2]), *f(s[2:4]), *s[4:]),
    ),
    "r2_remove": _Kind(
        -4, lambda f: [site for site in _crossing_pairs(f, 2) if _is_bigon(f, site)], _listed,
        lambda f, sites: (_remove_pairs(f.components, s) for s in sites), _r2_remove_inverse,
        lambda s, f: tuple(map(f, s)),
    ),
    "r3": _Kind(
        0, lambda f: _crossing_pairs(f, 3), _listed,
        lambda f, sites: (_swap_pairs(f.components, s) for s in sites), lambda f, m: m,
        lambda s, f: tuple(sorted(map(f, s))),
    ),
    "transvection": _Kind(1, lambda f: (), _transvection_match, _transvection_rewrite,
                          lambda f, m: None, None),
}


# the search's expansion order: shrinking kinds first, so that the frontiers meet early
_SEARCH_ORDER = tuple(sorted(_KINDS, key=lambda name: (_KINDS[name].growth, name)))


# ----------------------------------------------------------------------
# catalogue enumeration and application


def applicable_moves(diagram: Diagram) -> list[MoveInstance]:
    """Every catalogue move that fits, in MoveInstance order (transvections
    excluded: they are parameterized by external curve data): the kinds are
    walked by name and each lists the sites where it fits in order, on the
    diagram's code form, so no match and no sort is needed."""
    form = _code_form(diagram)
    return [MoveInstance(name, site) for name, kind in sorted(_KINDS.items()) for site in kind.sites(form)]


def _fitting(diagram, move: MoveInstance) -> _Kind:
    """The move's kind, once its match passes on a diagram or its code form;
    raises InapplicableMove."""
    kind = _KINDS.get(move.kind) if type(move.kind) is str else None
    if kind is None:
        raise InapplicableMove(f"unknown move kind {move.kind!r}")
    try:
        why = kind.match(diagram, move)
    except (TypeError, ValueError):  # a site of the wrong shape
        why = "malformed site"
    if why is not None:
        raise InapplicableMove(f"{move.kind} at {move.site}: {why}")
    return kind


def _child(diagram: Diagram, move: MoveInstance) -> Diagram:
    """The diagram after a fitting move, rewritten on its event tuples."""
    [comps] = _KINDS[move.kind].rewrite(_Form(None, diagram.mode, diagram.components), [move.site])
    return Diagram(diagram.surface, diagram.mode, comps)


def apply_move(diagram: Diagram, move: MoveInstance) -> Diagram:
    """Apply a catalogue move or transvection, checked: raises InapplicableMove
    for an unknown kind, a malformed site or a site where the kind does not
    fit."""
    _fitting(diagram, move)
    return _child(diagram, move)


def invert_move(diagram: Diagram, move: MoveInstance) -> MoveInstance:
    """Inverse move in the context of the diagram the move applies to.
    Transvections only add loops and have no catalogue inverse."""
    inv = _fitting(diagram, move).inverse(diagram, move)
    if inv is None:
        raise InapplicableMove("transvections are not invertible as moves")
    return inv


# ----------------------------------------------------------------------
# canonical forms (equality up to rotation, component order, id names)


# A reading memo, (starts, tables), serves one search (canonical_transform
# reads with a fresh one): starts maps an id-blind string to its least
# rotation's start, or _TIED, and tables a crossing sequence to its
# renumbering table.  The two are apart, as the empty string and the empty
# sequence are the same bytes.  _TABLES maps an order of first occurrence to
# its table for every search.  Each map is emptied when it holds _MEMO entries.
_MEMO = 4096  # a benchmark search fills < 2,000; both memo maps full hold about 0.8 MB
_TIED = -1
_TABLES: dict[bytes, bytes] = {}


def _renumbering(crossings: bytes, tables: dict) -> bytes:
    """The table numbering crossing ids by first occurrence in crossings, put
    in tables under crossings; sequences with one order share its table."""
    firsts = bytes(dict.fromkeys(crossings))
    table = _TABLES.get(firsts)
    if table is None:  # the i-th id's slot s: _CROSS0 + 2 * i + s - 1
        if len(_TABLES) >= _MEMO:
            _TABLES.clear()
        table = _TABLES[firsts] = bytes.maketrans(bytes(b | s for b in firsts for s in (0, 1)),
                                                  bytes(range(_CROSS0, 256))[:2 * len(firsts)])
    if len(tables) >= _MEMO:
        tables.clear()
    tables[crossings] = table
    return table


def _read(comp: bytes, memo: tuple[dict, dict]):
    """((key,), r) for a component's bytes whose id-blind string has one least
    rotation, r, else None, read through memo: the key renumbers its crossing
    ids with one translate."""
    starts, tables = memo
    blind = comp.translate(_BLIND)
    r = starts.get(blind)
    if r is None:
        if len(starts) >= _MEMO:
            starts.clear()
        _, r, period = least_rotation(blind, 0)  # crossings code lowest
        r = starts[blind] = _TIED if period < len(comp) else r
    if r == _TIED:
        return None
    turned = comp[r:] + comp[:r]
    crossings = turned.translate(_FIRST, _NONCROSS)  # its crossing bytes, slots cleared
    table = tables.get(crossings) or _renumbering(crossings, tables)
    return (turned.translate(table).decode("latin-1"),), r


def _turned(text: str, r: int, firsts: list, numbers: dict) -> tuple[str, list]:
    """A component read: (text rotated left by r and renumbered by the table numbers,
    which first numbers the crossings met here first; those crossings' first codes)."""
    turned = text[r:] + text[:r]
    new = [f for f in map(ord, dict.fromkeys(turned.translate(firsts))) if f not in numbers]
    for f in new:
        numbers.update({f: _CROSS0 + len(numbers), f + 1: _CROSS0 + len(numbers) + 1})
    return turned.translate(numbers), new


@functools.cache
def _slot_tables(bits: int) -> tuple[tuple, tuple]:
    """str.translate tables for the codes below 2 ** bits: each code's id-blind
    code, and a crossing code's first slot (other codes dropped)."""
    crossings = range(_CROSS0, max(1 << bits, _CROSS0))
    return tuple(range(_CROSS0)) + tuple(c & 1 for c in crossings), (None,) * _CROSS0 + tuple(
        c & ~1 for c in crossings)


def _blocks(comps: tuple):
    """canonical_transform of a form's components, read as str on translate tables."""
    texts = [comp.decode("latin-1") if type(comp) is bytes else comp for comp in comps]
    blind, firsts = _slot_tables(ord(max("".join(texts), default="\0")).bit_length())
    visits = {c: (ci, text.index(chr(c)))  # crossing code -> (component, position)
              for ci, text in enumerate(texts) for c in map(ord, text.translate(_DROP))}

    def read(ci, r):
        reading, numbers, unread = [], {}, []
        while True:
            turned, new = _turned(texts[ci], r, firsts, numbers)
            reading.append((turned, ci, r))
            # the unread visits of the crossings numbered so far, in number order
            unread += (visits.get(c) for f in new for c in (f, f + 1))
            unread = [v for v in unread if v and v[0] != ci]
            if not unread:
                return tuple(zip(*reading))
            ci, r = unread[0]

    lows = [least_rotation(text.translate(blind), "\0") for text in texts]  # (least, start, period)
    blocks, done = [], set()
    for ci in sorted(range(len(texts)), key=lambda c: lows[c][0]):
        if ci not in done:  # the least index with its block's least string: starts[0]
            first = read(ci, lows[ci][1])
            done.update(first[1])
            starts = [(c, r) for c in sorted(first[1]) if lows[c][0] == lows[ci][0]
                      for r in range(lows[c][1], len(texts[c]) or 1, lows[c][2])]
            blocks.append(min([first] + [read(c, r) for c, r in starts[1:]]))
    if len(blocks) == 1:
        return blocks[0]
    strs, perms, rots = zip(*sorted(blocks)) if blocks else ((), (), ())
    return strs, sum(perms, ()), sum(rots, ())


def canonical_transform(diagram: Diagram):
    """(key, perm, rots): canonical component i is component perm[i] rotated
    left by rots[i]; keys are equal exactly when the diagrams are equal up to
    rotation, component order and crossing names.  A block (components joined
    by crossings) is read from a component with its least id-blind string, at
    a least rotation; the next component holds the unread visit (slots are
    distinct) of the least-numbered crossing read so far and begins there.  A
    block takes its least (strs, perm, rots) reading; the key is one block's
    strs, or the blocks' strs in order.  Raises ValueError on an unknown event
    and on a slot visited twice."""
    return _transform(diagram, ({}, {}))[0]


def _transform(diagram: Diagram, memo: tuple[dict, dict]) -> tuple[tuple, _Form]:
    """(canonical_transform of diagram, read through memo; its code form)."""
    form = _code_form(diagram)
    slots = [ev for comp in diagram.components for ev in comp if ev[0] == "cross"]
    if len(set(slots)) < len(slots):
        ev = next(ev for ev, n in Counter(slots).items() if n > 1)
        raise ValueError(f"crossing {ev[1]} slot {ev[2]} is visited twice")
    one = form.one and _read(form.components[0], memo)
    return ((one[0], (0,), (one[1],)) if one else _blocks(form.components)), form


def canonical_key(diagram: Diagram):
    return canonical_transform(diagram)[0]


def _child_keys(form: _Form, name: str, sites, memo: tuple[dict, dict]):
    """canonical_key of form's diagram after the fitting move of kind name at
    each site in turn, off the codes its rewrite splices in one pass, read
    through memo: one component of bytes if the form's are, since moves keep
    both."""
    for comps in _KINDS[name].rewrite(form, sites):
        one = form.one and _read(comps[0], memo)
        yield one[0] if one else _blocks(comps)[0]


def diagrams_equal(d1: Diagram, d2: Diagram) -> bool:
    """Structural equality up to cyclic rotation, component permutation, and
    crossing-id renaming."""
    return (d1.surface, d1.mode) == (d2.surface, d2.mode) and canonical_key(d1) == canonical_key(d2)


def _site_map(src: tuple, dst: tuple):
    """Position transport src -> dst for canonically equal diagrams, given by
    their _transform readings; returns a function (ci, pos) -> (ci', pos')
    acting on cyclic positions/gaps."""
    ((key_s, perm_s, rots_s), src), ((key_d, perm_d, rots_d), dst) = src, dst
    if key_s != key_d:
        raise ValueError("site transport requires canonically equal diagrams")
    to_canon = {ci: (i, rots_s[i]) for i, ci in enumerate(perm_s)}

    def f(site):
        ci, pos = site
        i, r = to_canon[ci]
        ci2, canon_pos = perm_d[i], (pos - r) % max(len(src.components[ci]), 1)
        return ci2, (canon_pos + rots_d[i]) % max(len(dst.components[ci2]), 1)

    return f


# ----------------------------------------------------------------------
# bounded equivalence search


class SearchBudget(namedtuple("SearchBudget", "max_moves max_states transvection_generators")):
    """Limits of equivalent_bounded and the transvections it may apply."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, max_moves: int = 6, max_states: int = 100000,
                transvection_generators: tuple[MoveInstance, ...] = ()):
        self = tuple.__new__(cls, (max_moves, max_states, transvection_generators))
        for name, least in (("max_moves", 0), ("max_states", 1)):
            value = getattr(self, name)
            if type(value) is not int:  # no bool, float or str
                raise TypeError(f"{name} must be an integer, not {value!r}")
            if value < least:
                raise ValueError(f"{name} must be >= {least}, not {value}")
        for gen in transvection_generators:  # its site is read as curve data
            if not (isinstance(gen, MoveInstance) and gen.kind == "transvection"):
                raise TypeError(f"transvection_generators must hold transvections, not {gen!r}")
        return self


class EquivalenceVerdict(namedtuple("EquivalenceVerdict", "status certificate invariant",
                                     defaults=(None, None))):
    """Outcome of equivalent_bounded: status "equivalent" | "distinguished" |
    "unknown", a certificate (tuple of MoveInstance) when equivalent, and an
    invariant (name, value_for_d1, value_for_d2) when distinguished."""

    __slots__ = ()

    @property
    def equivalent(self) -> bool:
        return self.status == "equivalent"


def _distinguish(d1, d2, bundle, generators):
    if len(d1.components) != len(d2.components):
        return ("component_count", len(d1.components), len(d2.components))
    # equal shadow words have equal classes; only differing ones need keys
    w1, w2 = (sorted(shadow_word(d, ci) for ci in range(len(d.components))) for d in (d1, d2))
    if w1 != w2:
        try:
            s1, s2 = (sorted(conjugacy_class_key(w, d1.surface) for w in ws) for ws in (w1, w2))
        except UnsupportedSurface:
            s1 = s2 = None
        if s1 != s2:
            return ("shadow_classes", s1, s2)
    l1 = [lift_class(d1, bundle, ci) for ci in range(len(d1.components))]
    l2 = [lift_class(d2, bundle, ci) for ci in range(len(d2.components))]
    b1 = sorted(lc.base_part for lc in l1)
    b2 = sorted(lc.base_part for lc in l2)
    if b1 != b2:
        return ("lift_class_base", b1, b2)
    # total fiber degree mod the attainable transvection shifts
    shifts = [abs(bundle.euler_number)]
    for gen in generators:
        shifts.append(
            sum(transvection_fiber_shift(gen, ci) for ci in range(len(d1.components)))
        )
    modulus = math.gcd(*shifts)
    f1 = sum(lc.fiber_part for lc in l1)
    f2 = sum(lc.fiber_part for lc in l2)
    if (f1 - f2) % modulus if modulus else (f1 != f2):
        return ("lift_class_fiber", f1, f2)
    return None


def equivalent_bounded(
    d1: Diagram, d2: Diagram, bundle: CircleBundle, budget: SearchBudget = SearchBudget()
) -> EquivalenceVerdict:
    """Semi-decision procedure: bidirectional breadth-first search over the
    move closure, hashing diagrams up to rotation / component permutation /
    crossing-id names.  Returns a replayable certificate, a distinguishing
    invariant, or Unknown on budget exhaustion."""
    if d1.surface != d2.surface or d1.mode != d2.mode:
        raise ModeMismatch("equivalence search needs matching surface and mode")
    found = _distinguish(d1, d2, bundle, budget.transvection_generators)
    if found is not None:
        return EquivalenceVerdict("distinguished", invariant=found)

    memo = ({}, {})  # the search's reading memo, for its roots, children and certificate
    (t1, f1), (t2, f2) = _transform(d1, memo), _transform(d2, memo)
    k1, k2 = t1[0], t2[0]
    if k1 == k2:
        return EquivalenceVerdict("equivalent", certificate=())

    # the forward side also tries each generator and its inverse where they
    # fit; a flip adds |weight| loops per site (its growth 1 only orders it)
    flips = sorted(
        MoveInstance("transvection", tuple((w, n * flip, sites) for w, n, sites in gen.site))
        for gen in budget.transvection_generators
        for flip in (1, -1)
    )
    flip_growth = {t: sum(abs(n) * len(sites) for _, n, sites in t.site) for t in flips}

    # side 0 searches forward from d1, side 1 backward from d2 (its paths are
    # inverted on meet).  Each side maps a node's key to (its parent's path,
    # kind, site), and a frontier holds (parent's code form, parent's path,
    # kind, site), a root (its form, (), None, None); expanding a node splices
    # its codes once more and makes its path; only a certificate builds diagrams
    seen = ({k1: ((), None, None)}, {k2: ((), None, None)})
    frontiers = [[(f1, (), None, None)], [(f2, (), None, None)]]
    # any path of <= max_moves moves can overshoot the endpoint sizes by at
    # most 4 events per move round-trip; larger states cannot help
    size_cap = max(sum(map(len, d.components)) for d in (d1, d2)) + 2 * budget.max_moves

    def path_to(path, name, site):
        """A node's path: its parent's, then the move (name, site) if any."""
        return path + (MoveInstance(name, site),) if name else path

    def finish(f_path, b_path):
        current = functools.reduce(_child, f_path, d1)  # the search listed each move
        cert, b, reading, steps = list(f_path), d2, (t2, f2), []
        # replay b_path from d2, keeping each diagram's reading with the
        # inverse of the move that made it (the inverse applies to that diagram)
        for mv in b_path:
            inv = _KINDS[mv.kind].inverse(reading[1], mv)
            b = _child(b, mv)
            reading = _transform(b, memo)
            steps.append((reading, inv))
        reading = _transform(current, memo)
        for b_reading, inv in reversed(steps):
            kind = _KINDS[inv.kind]
            moved = MoveInstance(inv.kind, kind.transport(inv.site, _site_map(b_reading, reading)))
            _fitting(reading[1], moved)
            current = _child(current, moved)
            reading = _transform(current, memo)
            cert.append(moved)
        if reading[0][0] != k2:
            raise InapplicableMove("certificate assembly failed")
        return EquivalenceVerdict("equivalent", certificate=tuple(cert))

    states = 2  # len(seen[0]) + len(seen[1])
    for _ in range(budget.max_moves):  # one layer of the smaller side, forward on a tie
        if not any(frontiers):
            break
        forward, backward = map(len, frontiers)
        side = 0 if forward and (not backward or forward <= backward) else 1
        here, there = seen[side], seen[1 - side]
        next_frontier = []
        for form, path, last, at in frontiers[side]:
            if last:
                [comps] = _KINDS[last].rewrite(form, [at])
                form, path = _coded(form.table, form.mode, comps), path_to(path, last, at)
            size = sum(map(len, form.components))
            for name in _SEARCH_ORDER:
                if name == "transvection":
                    sites = [t.site for t in flips
                             if side == 0 and size + flip_growth[t] <= size_cap
                             and _transvection_match(form, t) is None]
                elif size + _KINDS[name].growth > size_cap:
                    continue
                else:
                    sites = _KINDS[name].sites(form)
                if not sites:
                    continue
                for site, key in zip(sites, _child_keys(form, name, sites, memo)):
                    if key in here:
                        continue
                    if key in there:
                        paths = (path_to(path, name, site), path_to(*there[key]))
                        try:
                            return finish(*(paths if side == 0 else paths[::-1]))
                        except InapplicableMove:
                            pass
                    here[key] = (path, name, site)
                    next_frontier.append((form, path, name, site))
                    states += 1
                    if states > budget.max_states:
                        return EquivalenceVerdict("unknown")
        frontiers[side] = next_frontier
    return EquivalenceVerdict("unknown")


# ----------------------------------------------------------------------
# certificate (de)serialization


def move_to_json(move: MoveInstance) -> dict:
    if move.kind != "transvection":
        return {"kind": move.kind, "site": _site_json(move.site)}
    curves = [{"word": word, "weight": weight, "sites": [list(s) for s in sites]}
              for word, weight, sites in move.site]
    return {"kind": move.kind, "site": [], "curves": curves}


def _site_json(site):
    return [list(s) if isinstance(s, tuple) else s for s in site]


def move_from_json(obj: dict) -> MoveInstance:
    kind = obj["kind"]
    if kind == "transvection":
        return transvection(
            (c["word"], c["weight"], [tuple(s) for s in c["sites"]])
            for c in obj.get("curves", [])
        )
    site = tuple(tuple(s) if isinstance(s, list) else s for s in obj.get("site", []))
    return MoveInstance(kind, site)


def replay(diagram: Diagram, certificate) -> Diagram:
    for move in certificate:
        diagram = apply_move(diagram, move)
    return diagram
