"""Move calculus: catalogue, application, inverses, canonical forms, and the
bounded equivalence search."""

import itertools
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelift import (
    CircleBundle,
    Diagram,
    InapplicableMove,
    ModeMismatch,
    MoveInstance,
    SearchBudget,
    Surface,
    applicable_moves,
    apply_move,
    canonical_key,
    diagrams_equal,
    equivalent_bounded,
    invert_move,
    lift_class,
    move_from_json,
    move_to_json,
    parse,
    replay,
    transvection,
    transvection_fiber_shift,
    validate,
    vertex_link_curve,
)
from curvelift import moves as moves_module
from curvelift.diagrams import cross, cusp, edge, kink, qturn, shadow_word
from curvelift.moves import canonical_transform
from curvelift.words import least_rotation

from helpers import (
    random_diagram,
    reference_accepts,
    reference_block_transform,
    reference_canonical_transform,
    reference_distance,
    reference_sites,
)

S2 = Surface(2)
UT = CircleBundle.unit_tangent(S2)
PT = CircleBundle.projective_tangent(S2)


def smooth(*events):
    return Diagram(S2, "smooth", (tuple(events),))


def circle():
    return smooth(qturn(1), qturn(1), qturn(1), qturn(1))


# ----------------------------------------------------------------------
# catalogue and application


def test_empty_component_offers_stab_and_r2():
    d = Diagram(S2, "smooth", ((),))
    kinds = {m.kind for m in applicable_moves(d)}
    assert kinds == {"stab", "r2_insert"}


def test_stab_destab_round_trip():
    d = circle()
    stab = MoveInstance("stab", (0, 2, "lr"))
    d2 = apply_move(d, stab)
    assert d2.components[0][2:4] == (("kink", 1), ("kink", -1))
    destab = invert_move(d, stab)
    assert destab == MoveInstance("destab", (0, 2))
    assert apply_move(d2, destab) == d


def test_destab_then_stab_round_trip():
    d = smooth(qturn(1), kink(1), kink(-1), qturn(1), qturn(1), qturn(1))
    destab = MoveInstance("destab", (0, 1))
    d2 = apply_move(d, destab)
    stab = invert_move(d, destab)
    assert apply_move(d2, stab) == d


def test_destab_wrap_pair():
    d = smooth(kink(-1), qturn(1), qturn(1), qturn(1), qturn(1), kink(1))
    destab = MoveInstance("destab", (0, 5))
    d2 = apply_move(d, destab)
    assert d2 == circle()
    stab = invert_move(d, destab)
    assert diagrams_equal(apply_move(d2, stab), d)


def test_destab_rejects_same_side_pair():
    d = smooth(kink(1), kink(1))
    with pytest.raises(InapplicableMove):
        apply_move(d, MoveInstance("destab", (0, 0)))


def test_pt_stab_uses_cusps():
    d = Diagram(S2, "cusp", ((cusp(1), cusp(1)),))
    moves = [m for m in applicable_moves(d) if m.kind == "stab"]
    assert all(m.site[2] == "ud" for m in moves)
    d2 = apply_move(d, moves[0])
    assert sum(1 for ev in d2.components[0] if ev[0] == "cusp") == 4
    with pytest.raises(InapplicableMove):
        apply_move(d, MoveInstance("stab", (0, 0, "lr")))


def test_kink_slide():
    d = smooth(kink(1), edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    slide = MoveInstance("kink_slide", (0, 0))
    d2 = apply_move(d, slide)
    assert d2.components[0][:2] == (("edge", "a1"), ("kink", 1))
    assert apply_move(d2, invert_move(d, slide)) == d
    with pytest.raises(InapplicableMove):
        apply_move(d, MoveInstance("kink_slide", (0, 2)))  # qturn/qturn


def test_r2_insert_remove_round_trip():
    d = circle()
    ins = MoveInstance("r2_insert", (0, 1, 0, 3))
    d2 = apply_move(d, ins)
    assert len(d2.components[0]) == 8
    rem = invert_move(d, ins)
    assert apply_move(d2, rem) == d


def test_r2_insert_same_gap():
    d = circle()
    ins = MoveInstance("r2_insert", (0, 2, 0, 2))
    d2 = apply_move(d, ins)
    rem = invert_move(d, ins)
    assert apply_move(d2, rem) == d


def test_r2_insert_takes_two_fresh_ids():
    # ids {1, 3}: the second new crossing must not reuse 3
    d = smooth(
        cross("1", 1), cross("3", 1), qturn(1), cross("1", 2), cross("3", 2), *[qturn(1)] * 3
    )
    d2 = apply_move(d, MoveInstance("r2_insert", (0, 0, 0, 2)))
    assert validate(d2) == []
    assert len(d2.crossing_ids()) == 4


def test_r2_insert_rebuilds_mixed_slot_bigon():
    # x.1 y.2 / y.1 x.2, the two strands abutting in one gap
    d = smooth(qturn(1), cross("1", 1), cross("2", 2), cross("2", 1), cross("1", 2), qturn(1))
    rem = MoveInstance("r2_remove", ((0, 1), (0, 3)))
    ins = invert_move(d, rem)
    assert ins == MoveInstance("r2_insert", (0, 1, 0, 1, "12"))
    assert diagrams_equal(apply_move(apply_move(d, rem), ins), d)


def _walk_undoing_every_move(rng, d):
    # r2_insert is left out only for its quadratic fan-out; its inverse is an
    # r2_remove, which is checked here from the other side
    for _ in range(4):
        moves = applicable_moves(d)
        for move in moves:
            if move.kind == "r2_insert":
                continue
            moved = apply_move(d, move)
            assert validate(moved) == [], (d, move)
            back = apply_move(moved, invert_move(d, move))
            assert canonical_key(back) == canonical_key(d), (d, move)
        d = apply_move(d, rng.choice(moves))


def test_every_move_is_undone_by_its_inverse():
    rng = random.Random(0)
    for _ in range(60):
        mode = rng.choice(["smooth", "cusp"])
        d = random_diagram(rng, S2, mode, n_components=rng.randint(1, 2), max_crossings=3)
        _walk_undoing_every_move(rng, d)
    # an opposite kink pair in cusp mode: stab inserts only cusp pairs there,
    # so destab must not take the kinks out
    pt_kinks, _ = parse("surface genus=2 boundary=0\nbundle PT\ncomp: L+ L- C^ C^\n")
    _walk_undoing_every_move(rng, pt_kinks)


def test_r2_remove_detected_in_catalogue():
    d = apply_move(circle(), MoveInstance("r2_insert", (0, 0, 0, 2)))
    removes = [m for m in applicable_moves(d) if m.kind == "r2_remove"]
    assert removes
    for rem in removes:
        assert diagrams_equal(apply_move(d, rem), circle())


@settings(max_examples=200)
@given(st.randoms(use_true_random=False))
def test_applicable_moves_come_out_sorted(rng):
    # up to two r2_insert moves add bigons and sometimes triangles, so that
    # r2_remove and r3 sites occur
    d = random_diagram(
        rng, Surface(rng.choice((2, 3))), rng.choice(["smooth", "cusp"]),
        n_components=rng.randint(1, 3), max_loose_events=4, max_crossings=3,
    )
    for _ in range(rng.randint(0, 2)):
        d = apply_move(d, rng.choice([m for m in applicable_moves(d) if m.kind == "r2_insert"]))
    moves = applicable_moves(d)
    assert moves == sorted(moves)
    assert_sites_as_reference(rng, d, 30)
    # sound and complete: exactly the moves apply_move accepts among a
    # brute-force superset of each kind's sites, in the catalogue's form
    gaps = [(ci, p) for ci, comp in enumerate(d.components) for p in range(max(len(comp), 1))]
    positions = [(ci, p) for ci, comp in enumerate(d.components) for p in range(len(comp))]
    candidates = {
        "stab": [(*gap, moves_module._STABS[d.mode][0]) for gap in gaps],
        "destab": positions,
        "kink_slide": positions,
        "r2_insert": [(*g1, *g2) for g1 in gaps for g2 in gaps],
        "r2_remove": list(itertools.combinations(positions, 2)),
        "r3": list(itertools.combinations(positions, 3)),
    }
    accepted = {}
    for kind, sites in candidates.items():
        for site in sites:
            move = MoveInstance(kind, site)
            try:
                accepted[move] = apply_move(d, move)
            except InapplicableMove:
                pass
    assert moves == sorted(accepted)
    # the search keys each child as apply_move builds it
    assert search_keys(d, moves) == [canonical_key(accepted[move]) for move in moves]


def inexact(site) -> list:
    """site with its first coordinate turned into a float, and into a bool
    where that equals it."""
    first, *rest = site
    if type(first) is tuple:
        return [(s, *rest) for s in inexact(first)]
    return [(t(first), *rest) for t in (float, bool) if t(first) == first]


def assert_sites_as_reference(rng, d, samples):
    """Each kind lists on d's codes the sites that the event-tuple patterns
    list, and apply_move accepts exactly the moves that the event-tuple
    matches accept, among sites of every shape: each kind's listed sites,
    r2_remove sites in either order and samples of every other arrangement
    (and of the gap kinds' sites, which are quadratic in size)."""
    expected, form = reference_sites(d), moves_module._code_form(d)
    for name, sites in expected.items():
        assert moves_module._KINDS[name].sites(form) == sites, name
    assert applicable_moves(d) == [MoveInstance(name, site) for name in sorted(expected)
                                   for site in expected[name]]
    positions = [(ci, p) for ci, comp in enumerate(d.components) for p in range(len(comp) + 1)]
    pairs = list(itertools.permutations(positions, 2))

    def some(sites):
        return rng.sample(sites, min(samples, len(sites)))

    moves = [MoveInstance(name, site) for name, sites in expected.items()
             for site in (some(sites) if name in ("stab", "r2_insert") else sites)]
    moves += [MoveInstance("r2_remove", site[::-1]) for site in expected["r2_remove"]]
    moves += [MoveInstance(name, site) for name in ("destab", "kink_slide") for site in positions]
    moves += [MoveInstance("stab", (*gap, variant)) for gap in some(positions)
              for variant in ("lr", "rl", "ud", "du", "xx")]
    moves += [MoveInstance("r2_remove", site) for site in some(pairs)]
    moves += [MoveInstance("r3", tuple(rng.sample(positions, 3)))
              for _ in range(samples if len(positions) > 2 else 0)]
    moves += [MoveInstance("r2_insert", (0, 0, 0, 1, slots)) for slots in ("12", "22", "13", ["12"])]
    moves += [MoveInstance(name, site) for name in ("r2_remove", "r3", "destab", "transvection", "bogus")
              for site in ((), (0,), ((0, 0),), ((0, 0), (0, 2), (0, 4)), (0, -1), ((0, 1, 1),))]
    # a listed site with a bool or float coordinate, which equals its int
    # (True == 1, 1.0 == 1) but is not one
    moves += [MoveInstance("destab", (True, 0)), MoveInstance("kink_slide", (0, 1.0))]
    moves += [MoveInstance(name, site) for name in ("destab", "kink_slide", "r2_remove", "r3")
              for listed in expected[name][:samples] for site in inexact(listed)]
    for move in moves:
        try:
            apply_move(d, move)
            accepted = True
        except InapplicableMove:
            accepted = False
        assert accepted == reference_accepts(d, move), move
    # an r2_insert whose second gap comes first has an inverse whose pairs
    # come in descending order
    for site in [s for s in expected["r2_insert"] if s[0] == s[2] and s[3] < s[1]][:samples]:
        move = MoveInstance("r2_insert", site)
        inverse = invert_move(d, move)
        assert inverse.site[0] > inverse.site[1]
        child = apply_move(d, move)
        assert reference_accepts(child, inverse) and diagrams_equal(apply_move(child, inverse), d)


def test_code_sites_match_the_reference_past_the_byte_limit():
    # 93 to 95 crossing ids, so codes are bytes, bytes and str: a triangle and
    # a bigon, then ids that each come back with a quarter turn between visits
    rng = random.Random(7)
    triangle = (cross("a", 1), cross("b", 1), qturn(1), cross("b", 2), cross("c", 1), qturn(1),
                cross("c", 2), cross("a", 2), kink(1), kink(-1), edge("a1"))
    bigon = (cross("d", 1), cross("e", 1), qturn(1), cross("e", 2), cross("d", 2), kink(-1))
    for k in (88, 89, 90):
        ids = [str(i) for i in range(k)]
        events = triangle + bigon + tuple(ev for i in ids for ev in (cross(i, 1), qturn(1)))
        d = smooth(*events, *(ev for i in reversed(ids) for ev in (cross(i, 2), edge("b1"))))
        assert type(moves_module._code_form(d).components[0]) is (str if k + 5 > 94 else bytes)
        assert_sites_as_reference(rng, d, 40)


def test_rewrites_across_the_wrap():
    # a pair site at the last position holds the last event and the first
    a1, b1, q = edge("a1"), edge("b1"), qturn(1)
    x1, x2, y1, y2 = cross("1", 1), cross("1", 2), cross("2", 1), cross("2", 2)
    for d, move, after in [
        (smooth(kink(1), a1, q, q, b1), MoveInstance("kink_slide", (0, 4)), (b1, a1, q, q, kink(1))),
        (smooth(kink(-1), q, q, q, q, kink(1)), MoveInstance("destab", (0, 5)), (q, q, q, q)),
        (smooth(x2, q, q, x1, y1, q, q, y2), MoveInstance("r2_remove", ((0, 3), (0, 7))), (q,) * 4),
    ]:
        assert move in applicable_moves(d)
        assert apply_move(d, move).components == (after,)
        assert search_key(d, move) == canonical_key(smooth(*after))


def test_r2_remove_then_insert_recreates_canonically():
    d = apply_move(circle(), MoveInstance("r2_insert", (0, 1, 0, 3)))
    rem = [m for m in applicable_moves(d) if m.kind == "r2_remove"][0]
    d2 = apply_move(d, rem)
    ins = invert_move(d, rem)
    assert diagrams_equal(apply_move(d2, ins), d)


def test_r3_swaps_and_self_inverts():
    # three strands pairwise crossing: a triangle on one component
    d = smooth(
        cross("1", 1),
        cross("2", 1),
        qturn(1),
        cross("2", 2),
        cross("3", 1),
        qturn(1),
        cross("3", 2),
        cross("1", 2),
        qturn(1),
        qturn(1),
    )
    r3s = [m for m in applicable_moves(d) if m.kind == "r3"]
    assert r3s
    move = r3s[0]
    d2 = apply_move(d, move)
    assert d2 != d
    assert invert_move(d, move) == move  # self-inverse
    assert apply_move(d2, move) == d


def test_transvection_shifts_fiber_only():
    d = circle()
    mv = transvection([("ab", 2, [(0, 1, 1), (0, 3, -1)])])
    d2 = apply_move(d, mv)
    assert transvection_fiber_shift(mv, 0) == 0
    lc, lc2 = lift_class(d, UT, 0), lift_class(d2, UT, 0)
    assert lc2.base_part == lc.base_part and lc2.fiber_part == lc.fiber_part

    mv = transvection([("a", 1, [(0, 0, 1)])])
    d3 = apply_move(d, mv)
    assert d3.components[0][0] == ("kink", 1)
    assert transvection_fiber_shift(mv, 0) == 1


def test_transvection_site_is_its_curve_data():
    mv = transvection([("ab", 2, [(0, 1, 1)])])
    assert mv == MoveInstance("transvection", (("ab", 2, ((0, 1, 1),)),))
    assert mv.site == (("ab", 2, ((0, 1, 1),)),)


def test_transvection_pt_inserts_single_cusps():
    d = Diagram(S2, "cusp", ((cusp(1), cusp(1)),))
    mv = transvection([("a", 1, [(0, 0, 1)])])
    d2 = apply_move(d, mv)
    assert d2.components[0][0] == ("cusp", 1)
    assert len(d2.components[0]) == 3


def test_pt_transvection_keeps_a_valid_diagram_valid():
    # one cusp is PT's fiber unit: a single inserted cusp keeps the fiber degree integral
    d, _ = parse("surface genus=2 boundary=0\nbundle PT\n"
                 "comp: a1 Q+ Q+ b1 Q+ Q+ a1' Q+ Q+ b1' Q+ Q+\n")
    assert validate(d) == []
    d2 = apply_move(d, transvection([("a", 1, [(0, 0, 1)])]))
    assert d2.components[0][0] == cusp(1)
    assert validate(d2) == []


def test_transvection_validation():
    with pytest.raises(ValueError):
        transvection([("a", 0, [(0, 0, 1)])])
    with pytest.raises(ValueError):
        transvection([("a", 1, [(0, 0, 2)])])
    with pytest.raises(TypeError):
        transvection([(5, 1, [(0, 0, 1)])])
    with pytest.raises(InapplicableMove):
        invert_move(circle(), transvection([("a", 1, [(0, 0, 1)])]))


# ----------------------------------------------------------------------
# canonical forms


def test_canonical_key_rotation_invariant():
    events = [edge("a1"), qturn(1), edge("b1"), qturn(1), qturn(1), qturn(1)]
    keys = {canonical_key(smooth(*(events[r:] + events[:r]))) for r in range(6)}
    assert len(keys) == 1


def test_canonical_key_component_order_invariant():
    c1 = (edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    c2 = (edge("b1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    d1 = Diagram(S2, "smooth", (c1, c2))
    d2 = Diagram(S2, "smooth", (c2, c1))
    assert canonical_key(d1) == canonical_key(d2)


def test_canonical_key_id_invariant():
    d1 = smooth(cross("1", 1), cross("1", 2), qturn(1), qturn(1), qturn(1), qturn(1))
    d2 = smooth(cross("9", 1), cross("9", 2), qturn(1), qturn(1), qturn(1), qturn(1))
    assert diagrams_equal(d1, d2)


def test_canonical_key_distinguishes_structure():
    d1 = smooth(kink(1), kink(-1))
    d2 = smooth(kink(-1), kink(1))
    # as cyclic words these are rotations of each other
    assert diagrams_equal(d1, d2)
    d3 = smooth(kink(1), kink(1))
    assert not diagrams_equal(d1, d3)


def renamed(comp, name):
    """comp with each crossing id x renamed to name(x)."""
    return tuple(("cross", name(ev[1]), ev[2]) if ev[0] == "cross" else ev for ev in comp)


def tie_prone_diagram(rng):
    """A random diagram on a genus-2 or genus-3 surface in either mode, with
    1-4 components, sometimes up to two duplicated components (crossings
    renamed) and sometimes a component followed by a renamed copy of itself,
    so that component orders and rotations tie."""
    surface = Surface(rng.choice((2, 3)))
    mode = rng.choice(["smooth", "cusp"])
    d = random_diagram(
        rng, surface, mode, n_components=rng.randint(1, 3), max_loose_events=5, max_crossings=3
    )
    comps = list(d.components)
    for suffix in "de":
        if len(comps) < 4 and rng.random() < 0.5:
            comps.append(renamed(rng.choice(comps), lambda x: x + suffix))
    if rng.random() < 0.3:
        ci = rng.randrange(len(comps))
        comps[ci] += renamed(comps[ci], lambda x: x + "r")
    return Diagram(surface, mode, tuple(comps))


def rearranged(rng, d):
    """d with each component rotated, the components shuffled and the
    crossing ids renamed, all at random."""
    ids = sorted({ev[1] for comp in d.components for ev in comp if ev[0] == "cross"})
    names = dict(zip(ids, rng.sample([f"n{i}" for i in range(len(ids))], len(ids))))
    comps = []
    for comp in d.components:
        r = rng.randrange(max(len(comp), 1))
        comps.append(renamed(comp[r:] + comp[:r], names.get))
    rng.shuffle(comps)
    return Diagram(d.surface, d.mode, tuple(comps))


def rebuilt_key(d, perm, rots, key):
    """The key that d rotated and permuted by (perm, rots) reads, with crossing
    ids numbered per block; key's blocks are its strs if it has one, else its
    tuples of strs."""
    code = moves_module._code_table(d.surface)
    comps = [d.components[ci][r:] + d.components[ci][:r] for ci, r in zip(perm, rots)]
    nested = bool(key) and isinstance(key[0], tuple)
    out = []
    for n in map(len, key) if nested else [len(key)]:
        ids = {}
        out.append(tuple(
            "".join(code[ev] if ev[0] != "cross"
                    else chr(64 + 2 * ids.setdefault(ev[1], len(ids)) + ev[2] - 1) for ev in comp)
            for comp in comps[:n]
        ))
        del comps[:n]
    return tuple(out) if nested else out[0]


@settings(max_examples=400)
@given(st.randoms(use_true_random=False))
def test_canonical_transform_matches_reference(rng):
    d = tie_prone_diagram(rng)
    key, perm, rots = canonical_transform(d)
    ref_key, ref_perm, ref_rots = reference_canonical_transform(d)
    # (perm, rots) rebuild the key, and a single component's are the reference's
    assert rebuilt_key(d, perm, rots, key) == key
    if len(d.components) == 1:
        assert (perm, rots) == (ref_perm, ref_rots)
    # the key ignores rotation, component order and crossing names...
    d2 = rearranged(rng, d)
    assert canonical_key(d2) == key
    # ...and tells apart what the reference does: swap one adjacent pair
    comps = list(d2.components)
    ci = rng.randrange(len(comps))
    if len(comps[ci]) >= 2:
        p = rng.randrange(len(comps[ci]) - 1)
        c = comps[ci]
        comps[ci] = c[:p] + (c[p + 1], c[p]) + c[p + 2 :]
    d3 = Diagram(d.surface, d.mode, tuple(comps))
    assert (canonical_key(d3) == key) == (reference_canonical_transform(d3)[0] == ref_key)


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_canonical_transform_is_the_reference_block_route(rng):
    # (key, perm, rots) exactly as the string block route reads them, on 1-4
    # components, tie-prone, doubled, linked and not: certificates transport
    # sites by (perm, rots), so they cannot change silently
    d = tie_prone_diagram(rng)
    got = canonical_transform(d)
    assert got == reference_block_transform(d)
    # the block reader alone reads what _read takes, too
    assert moves_module._blocks(moves_module._code_form(d).components) == got


def byte_reading(d):
    """_read of d's code form if it is one component of bytes, else None: d's
    key and rotation off its bytes, or None for a tied least rotation."""
    comps = moves_module._code_form(d).components
    return moves_module._read(comps[0]) if type(comps[0]) is bytes else None


def test_one_component_key_route_agrees_with_the_transform_and_reference():
    # one least id-blind rotation takes the short route; a component followed
    # by a renamed copy of itself has several, and takes the general one
    rng = random.Random(22)
    routes = set()
    for _ in range(300):
        d = random_diagram(rng, Surface(rng.choice((2, 3))), rng.choice(["smooth", "cusp"]),
                           n_components=1, max_loose_events=5, max_crossings=3)
        comp = d.components[0]
        if rng.random() < 0.3:
            d = Diagram(d.surface, d.mode, (comp + renamed(comp, lambda x: x + "r"),))
        key, perm, rots = canonical_transform(d)
        ref_key, ref_perm, ref_rots = reference_canonical_transform(d)
        assert canonical_key(d) == key
        assert (perm, rots) == (ref_perm, ref_rots) and rebuilt_key(d, perm, rots, key) == key
        assert canonical_key(rearranged(rng, d)) == key
        one = byte_reading(d)
        assert one is None or one == (key, rots[0])
        routes.add((one is not None, bool(d.crossing_ids())))
    assert routes == {(True, True), (True, False), (False, True), (False, False)}


def reference_key(d, key):
    """key if it is reference_canonical_transform's for one component: the
    component read at the reference's rotation, ids numbered by first sight."""
    _, perm, rots = reference_canonical_transform(d)
    return rebuilt_key(d, perm, rots, key)


def block_route(d):
    """canonical_transform of d by its block reader alone, which must agree
    with the reference block route."""
    got = moves_module._blocks(moves_module._code_form(d).components)
    assert got == reference_block_transform(d)
    return got


def caches() -> list:
    """The reading caches: least rotations, and tables by crossing sequence
    and by order of first occurrence."""
    return [moves_module._STARTS, moves_module._SEQUENCES, moves_module._TABLES]


def clear_caches():
    for cache in caches():
        cache.clear()


def fill(cache: dict):
    """cache emptied and filled with _MEMO entries that no reading makes, so
    that its next new entry empties it again."""
    cache.clear()
    cache.update((bytes([255, i >> 8, i & 255]), 0) for i in range(moves_module._MEMO))


def cached_readings(comp: bytes) -> list:
    """_read of comp through the reading caches: cold, warm, holding its table
    under its order of first occurrences only (not under its crossing
    sequence), and with each cache full, so that each is emptied at its bound."""
    clear_caches()
    readings = [moves_module._read(comp), moves_module._read(comp)]
    moves_module._SEQUENCES.clear()
    readings.append(moves_module._read(comp))
    for cache in caches():
        fill(cache)
    readings.append(moves_module._read(comp))
    assert all(len(cache) <= moves_module._MEMO for cache in caches())
    return readings


@settings(max_examples=150)
@given(st.randoms(use_true_random=False))
def test_byte_reading_agrees_with_the_block_route_and_reference(rng):
    # one component on genus 2 or 3 in either mode, with 0-6 crossings,
    # without them, doubled with its ids renamed (tied least rotations) and
    # empty, read with the caches cold, warm, holding the table under its
    # order of first occurrences only and full
    surface, mode = Surface(rng.choice((2, 3))), rng.choice(["smooth", "cusp"])
    comp = random_diagram(rng, surface, mode, n_components=1, max_loose_events=6,
                          max_crossings=6).components[0]
    bare = tuple(ev for ev in comp if ev[0] != "cross")
    for events in (comp, bare, comp + renamed(comp, lambda x: x + "r"), ()):
        d = Diagram(surface, mode, (events,))
        block = block_route(d)
        key = canonical_key(d)
        assert key == canonical_transform(d)[0] == block[0] == reference_key(d, key)
        blind = "".join(map(moves_module._code_table(surface).__getitem__, events))
        tied = least_rotation(blind)[2] < len(blind)
        expected = None if tied else (block[0], block[2][0])
        assert cached_readings(moves_module._code_form(d).components[0]) == [expected] * 4


def test_memoised_reading_edge_cases():
    # each cache is bounded: more distinct sequences and orders than _MEMO
    # keep at most _MEMO entries in _SEQUENCES and in _TABLES
    ids = itertools.permutations(range(64, 192, 2), 3)
    for x, y, z in itertools.islice(ids, 3 * moves_module._MEMO):
        moves_module._renumbering(bytes([x, y, z, x, y, z]))
        assert max(len(moves_module._SEQUENCES), len(moves_module._TABLES)) <= moves_module._MEMO
    assert cached_readings(b"") == [(("",), 0)] * 4  # the empty component
    # no crossing: the least letter is not code 0, and the key is the blind string
    d = smooth(qturn(1), edge("b1"), qturn(1), edge("a1"), qturn(1), qturn(1))
    comp = moves_module._code_form(d).components[0]
    assert min(comp) > 1
    assert cached_readings(comp) == [(canonical_key(d), block_route(d)[2][0])] * 4
    # tied least rotations: none, and _STARTS keeps the tie
    one = (cross("1", 1), qturn(1), cross("1", 2), qturn(1))
    tied = smooth(*one, *renamed(one, lambda x: "2"))
    assert cached_readings(moves_module._code_form(tied).components[0]) == [None] * 4
    # sequences with one order of first occurrences share one table, held in
    # _TABLES under that order only
    moves_module._TABLES.clear()
    assert moves_module._renumbering(bytes([66, 64, 66, 64])) is moves_module._renumbering(
        bytes([66, 66, 64, 64]))
    assert list(moves_module._TABLES) == [bytes([66, 64])]
    # 94 crossing ids, and the 96 of an r2_insert child of theirs, whose own
    # form is str but whose spliced bytes _read takes
    d = nested(94)
    form = moves_module._code_form(d)
    assert cached_readings(form.components[0]) == [(canonical_key(d), block_route(d)[2][0])] * 4
    move = MoveInstance("r2_insert", (0, 94, 0, 96))
    child = apply_move(d, move)
    assert len(child.crossing_ids()) == 96
    assert type(moves_module._code_form(child).components[0]) is str
    [(spliced,)] = moves_module._KINDS["r2_insert"].rewrite(form, [move.site])
    key = canonical_key(child)
    assert key == reference_key(child, key)
    assert [reading and reading[0] for reading in cached_readings(spliced)] == [key] * 4
    assert search_key(d, move) == key


def test_empty_and_crossing_free_components_read_through_the_caches():
    # the empty id-blind string and the empty crossing sequence are the same
    # bytes, so they are kept in two caches: read in either order, each
    # component keeps its own key and rotation
    bare = smooth(qturn(1), edge("b1"), qturn(1), edge("a1"), qturn(1), qturn(1))
    empty = Diagram(S2, "smooth", ((),))
    forms = [moves_module._code_form(d).components[0] for d in (empty, bare)]
    expected = [canonical_transform(d) for d in (empty, bare)]
    assert expected[0] == (("",), (0,), (0,)) and expected[1] == block_route(bare)
    for order in ((0, 1), (1, 0)):
        clear_caches()
        for _ in range(2):
            for i in order:
                key, _, rots = expected[i]
                assert moves_module._read(forms[i]) == (key, rots[0])
        assert set(moves_module._STARTS) == {b"", forms[1]} and set(moves_module._SEQUENCES) == {b""}


def nested(k, *extra):
    """One component visiting crossing ids 1..k in order, then extra, four
    quarter turns and the ids back in reverse: one least rotation."""
    events = tuple(cross(str(i), 1) for i in range(1, k + 1)) + extra + Q4
    return smooth(*events, *(cross(str(i), 2) for i in range(k, 0, -1)))


def test_code_forms_past_94_crossing_ids():
    # a form is bytes up to 94 ids and str past them, and every size is read
    # as the reference reads it, with _read on bytes only
    for k, form_type in ((94, bytes), (95, str), (130, str)):
        d = nested(k)
        assert type(moves_module._code_form(d).components[0]) is form_type
        assert (byte_reading(d) is not None) == (form_type is bytes)
        key, perm, rots = canonical_transform(d)
        assert (key, perm, rots) == block_route(d) == reference_block_transform(d)
        assert key == reference_key(d, key)
        assert canonical_key(rearranged(random.Random(k), d)) == key
    # two components sharing 100 ids, each visiting them all once: a tied
    # pair of blocks read as the reference reads them, in any arrangement
    first = tuple(cross(str(i), 1) for i in range(1, 101)) + Q4
    second = tuple(cross(str(i), 2) for i in range(100, 0, -1)) + Q4
    for d in (Diagram(S2, "smooth", (first, second)), Diagram(S2, "smooth", (second, first))):
        assert type(moves_module._code_form(d).components[0]) is str
        key, perm, rots = canonical_transform(d)
        assert (key, perm, rots) == reference_block_transform(d)
        assert rebuilt_key(d, perm, rots, key) == key
        for seed in range(3):
            assert canonical_key(rearranged(random.Random(seed), d)) == key


def test_byte_reading_rejects_what_the_alphabet_does_not_hold():
    for ev in [edge("a3"), kink(2), cross("1", 3), cross("1", 0), ("bogus",)]:
        d = smooth(qturn(1), ev)
        for read in (moves_module._code_form, canonical_key):
            with pytest.raises(ValueError, match="not in the alphabet"):
                read(d)


def test_code_table_keeps_no_crossing_id():
    # a crossing's code is its slot's, whatever its id: the per-surface table,
    # kept for the life of the process, does not grow with the ids it meets
    table = moves_module._code_table(S2)
    size = len(table)
    for i in range(300):
        canonical_key(smooth(cross(f"x{i}", 1), qturn(1), cross(f"x{i}", 2), qturn(1)))
    assert len(table) == size
    assert (table[cross("x7", 1)], table[cross("x7", 2)]) == ("\0", "\x01")


def search_keys(d, moves):
    """The keys the search gives the children of d by moves: each run of one
    kind keyed in one pass."""
    form, keys = moves_module._code_form(d), []
    for name, run in itertools.groupby(moves, lambda m: m.kind):
        keys += moves_module._child_keys(form, name, [m.site for m in run])
    return keys


def search_key(d, move):
    """The key the search gives the child of d by move."""
    return search_keys(d, [move])[0]


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_children_keyed_through_the_reading_caches(rng):
    # a parent's children keyed in one pass per kind through the caches,
    # cold, warm, with each cache full (emptied at its bound) and holding
    # each table under its order only, key as the built children and as the
    # reference; one component, tie-prone or not, or two
    surface, mode = Surface(rng.choice((2, 3))), rng.choice(["smooth", "cusp"])
    d = random_diagram(rng, surface, mode, n_components=rng.choice((1, 1, 2)),
                       max_loose_events=4, max_crossings=3)
    if rng.random() < 0.3:
        comp = d.components[0]
        d = Diagram(surface, mode, (comp + renamed(comp, lambda x: x + "r"),) + d.components[1:])
    moves = applicable_moves(d)
    expected = []
    for move in moves:
        child = apply_move(d, move)
        expected.append(canonical_key(child))
        assert reference_block_transform(child)[0] == expected[-1]
    clear_caches()
    assert search_keys(d, moves) == expected  # cold
    assert search_keys(d, moves) == expected  # warm
    for cache in caches():
        fill(cache)
    assert search_keys(d, moves) == expected  # each cache emptied at its bound
    assert all(len(cache) <= moves_module._MEMO for cache in caches())
    moves_module._SEQUENCES.clear()
    assert search_keys(d, moves) == expected  # tables under their orders only


class BoundedCache(dict):
    """A reading cache that fails on holding more than _MEMO entries and
    counts how often it is emptied."""

    emptied = 0

    def __setitem__(self, key, value):
        super().__setitem__(key, value)
        assert len(self) <= moves_module._MEMO

    def clear(self):
        self.emptied += 1
        super().clear()


def bounded_caches(monkeypatch) -> list:
    """Empty BoundedCaches put in place of the reading caches."""
    for name in ("_STARTS", "_SEQUENCES", "_TABLES"):
        monkeypatch.setattr(moves_module, name, BoundedCache())
    return caches()


def test_no_reading_cache_holds_more_than_its_bound(monkeypatch):
    # with a bound of 8 entries, the exhaustion pair's search empties each
    # cache at least once (_STARTS 240 times), and none ever holds more than 8
    monkeypatch.setattr(moves_module, "_MEMO", 8)
    bounded = bounded_caches(monkeypatch)
    (d1, bundle), (d2, _) = parse(EXHAUSTION_D1), parse(EXHAUSTION_D2)
    assert equivalent_bounded(d1, d2, bundle, budget(max_moves=6, max_states=2000)).status == "unknown"
    assert all(cache.emptied for cache in bounded)


def test_search_verdicts_do_not_depend_on_the_reading_caches(monkeypatch):
    # the same verdicts and certificates with the caches cleared, warm, and
    # full, so that each is emptied during the search
    searches = [(EXHAUSTION_D1, EXHAUSTION_D2, budget(max_moves=6, max_states=2000)),
                (TWO_SIDED_D1, TWO_SIDED_D2, budget())]
    searches = [(parse(t1)[0], *parse(t2), b) for t1, t2, b in searches]

    def verdicts():
        return [equivalent_bounded(d1, d2, bundle, b) for d1, d2, bundle, b in searches]

    bounded = bounded_caches(monkeypatch)
    expected = verdicts()  # cleared
    assert expected[0].status == "unknown" and len(expected[1].certificate) == 4
    assert all(cache for cache in bounded) and verdicts() == expected  # warm
    for cache in bounded:
        fill(cache)
        cache.emptied = 0
    assert verdicts() == expected and all(cache.emptied for cache in bounded)  # full


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_spliced_child_keys_equal_built_child_keys(rng):
    surface, mode = Surface(rng.choice((2, 3))), rng.choice(["smooth", "cusp"])
    d = random_diagram(rng, surface, mode, n_components=rng.choice((1, 1, 1, 2)),
                       max_loose_events=5, max_crossings=3)
    for _ in range(rng.randint(0, 2)):  # bigons and triangles for r2_remove and r3
        d = apply_move(d, rng.choice([m for m in applicable_moves(d) if m.kind == "r2_insert"]))
    moves = applicable_moves(d) + [
        MoveInstance("stab", (*move.site[:2], moves_module._STABS[mode][1]))
        for move in applicable_moves(d) if move.kind == "stab"
    ] + [MoveInstance("r2_insert", site + (slots,))
         for site in rng.choices(moves_module._KINDS["r2_insert"].sites(moves_module._code_form(d)), k=5)
         for slots in ("12", "21", "22")]
    for _ in range(3):
        sites = [(ci, rng.randint(0, len(d.components[ci])), rng.choice((1, -1)))
                 for ci in rng.choices(range(len(d.components)), k=rng.randint(1, 3))]
        moves.append(transvection([("a", rng.choice((1, -1, 2)), sites)]))
    for move in moves:
        assert search_key(d, move) == canonical_key(apply_move(d, move)), move


def test_spliced_child_keys_agree_past_the_byte_limit():
    # a parent with 94 ids splices byte children with up to 96, one with 95
    # splices str children; either way, one component or two (the second
    # takes the last ten ids' second visits), a tied rotation or not
    rng = random.Random(5)
    for k in (93, 94, 95):
        one = nested(k, edge("a1"))
        doubled = smooth(*one.components[0], *renamed(one.components[0], lambda x: x + "r"))
        two = Diagram(S2, "smooth", (one.components[0][:-10] + Q4, one.components[0][-10:]))
        for d in (one, doubled, two):
            ids = len(d.crossing_ids())
            assert type(moves_module._code_form(d).components[0]) is (bytes if ids <= 94 else str)
            moves = [MoveInstance(name, site) for name in ("stab", "r2_insert", "r2_remove")
                     for site in rng.sample(moves_module._KINDS[name].sites(moves_module._code_form(d)), 6)]
            moves.append(transvection([("a", 2, [(0, 3, 1), (0, 70, -1)])]))
            for move in moves:
                child = apply_move(d, move)
                key = canonical_key(child)
                assert search_key(d, move) == key
                assert canonical_transform(child) == reference_block_transform(child)


Q4 = (qturn(1),) * 4


def component_reads(monkeypatch):
    """The arguments of every later component read of the block reader."""
    return counting(monkeypatch, "_turned")


def test_canonical_key_nine_component_chain():
    # 9! = 362,880 component orders tie on their blind strings
    d = chain(9)
    assert diagrams_equal(d, rearranged(random.Random(0), d))


def linked_pairs(n):
    """n copies of a pair of components crossing each other twice."""
    comps = []
    for i in range(n):
        x, y = f"{i}x", f"{i}y"
        comps.append((cross(x, 1), qturn(1), cross(y, 1)) + Q4[:3])
        comps.append((cross(x, 2), qturn(1), cross(y, 2)) + Q4[:3])
    return Diagram(S2, "smooth", tuple(comps))


def test_canonical_key_six_identical_linked_pairs():
    # 6! * 6! = 518,400 component orders tie on their blind strings
    d = linked_pairs(6)
    assert diagrams_equal(d, rearranged(random.Random(0), d))


def test_canonical_key_identical_components_alone_are_kept_once(monkeypatch):
    # a component that shares no crossing is a block of its own with one
    # start, so ten copies make ten component reads, not 10! orders
    calls = component_reads(monkeypatch)
    for comp in [(edge("a1"),) + Q4, (cross("x", 1), cross("x", 2)) + Q4]:
        d = Diagram(S2, "smooth", tuple(renamed(comp, lambda x, i=i: f"{x}{i}") for i in range(10)))
        calls.clear()
        key, perm, rots = canonical_transform(d)
        assert perm == tuple(range(10)) and len(calls) == 10
        assert canonical_key(rearranged(random.Random(0), d)) == key


def star(leaves):
    """Identical leaves that each share one crossing with a center, which
    meets them in reverse order."""
    comps = [(cross(f"x{i}", 1), cross(f"x{i}", 2), cross(f"y{i}", 1)) + Q4 for i in range(leaves)]
    comps.append(tuple(cross(f"y{i}", 2) for i in reversed(range(leaves))) + Q4)
    return Diagram(S2, "smooth", tuple(comps))


def test_canonical_key_is_exact_up_to_the_cap(monkeypatch):
    # five leaves tie in 5! = 120 component orders; the block is read once
    # from each leaf, six component reads per reading, and the least reading starts
    # at the leaf just before the center's quarter turns, then reads the
    # center from there and the other leaves in the center's order
    calls = component_reads(monkeypatch)
    d = star(5)
    key, perm, rots = canonical_transform(d)
    assert len(calls) == 5 * 6 and perm == (0, 5, 4, 3, 2, 1)
    assert rebuilt_key(d, perm, rots, key) == key
    for seed in range(3):
        assert canonical_key(rearranged(random.Random(seed), d)) == key


def chain(n):
    """n components, each crossing the next once and the last the first."""
    links = [(cross(str(i), 2), cross(str((i + 1) % n), 1)) + Q4 for i in range(n)]
    return Diagram(S2, "smooth", tuple(links))


@pytest.mark.parametrize(
    "d", [linked_pairs(10), star(10), chain(20)], ids=["linked_pairs", "star", "chain"]
)
def test_canonical_key_symmetric_blocks_are_exact(monkeypatch, d):
    # every start of a block is read once; here each component has one least
    # rotation, so at most n starts of n component reads, however many orders tie
    start = time.perf_counter()
    key = canonical_key(d)
    assert time.perf_counter() - start < 0.1
    calls = component_reads(monkeypatch)
    assert canonical_key(d) == key
    n = len(d.components)
    assert len(calls) <= n * (n + 1)
    for seed in range(3):
        assert canonical_key(rearranged(random.Random(seed), d)) == key


def test_canonical_key_rejects_a_slot_visited_twice():
    # on every route: two components, one component with tied least rotations,
    # and one component with one least rotation, which is read off its bytes
    for comps in [
        ((cross("x", 1), qturn(1)), (cross("x", 1), qturn(1))),
        ((cross("x", 1), cross("x", 2), cross("x", 1), cross("x", 2)),),
        ((cross("x", 1), qturn(1), cross("x", 1), qturn(1)),),
        ((cross("x", 1), qturn(1), cross("x", 1), qturn(1), qturn(1)),),
    ]:
        for key in (canonical_key, canonical_transform):
            with pytest.raises(ValueError, match="crossing x slot 1 is visited twice"):
                key(Diagram(S2, "smooth", comps))


def test_canonical_key_rejects_event_outside_alphabet():
    for ev in [edge("a3"), kink(2), cross("1", 3), ("bogus",)]:
        with pytest.raises(ValueError, match="not in the alphabet"):
            canonical_key(smooth(qturn(1), ev))


# ----------------------------------------------------------------------
# search


def budget(**kw):
    defaults = dict(max_moves=6, max_states=100000)
    defaults.update(kw)
    return SearchBudget(**defaults)


@pytest.mark.parametrize("field, value", [
    ("max_moves", 1.5), ("max_states", 2.5), ("max_moves", True), ("max_states", False),
    ("max_moves", "3"), ("max_states", None),
])
def test_search_budget_rejects_a_field_that_is_not_an_int(field, value):
    # before equivalent_bounded can fail on it, naming the field
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        budget(**{field: value})
    with pytest.raises(TypeError, match=f"^{field} must be an integer"):
        budget()._replace(**{field: value})


@pytest.mark.parametrize("gen", [
    "x", MoveInstance("stab", (0, 1, "lr")), ("transvection", (("a", 1, ((0, 0, 1),)),)),
], ids=["str", "stab", "plain-tuple"])
def test_search_budget_rejects_a_generator_that_is_not_a_transvection(gen):
    # before equivalent_bounded reads its site as curve data, naming the field
    with pytest.raises(TypeError, match="^transvection_generators must hold transvections"):
        budget(transvection_generators=(gen,))
    with pytest.raises(TypeError, match="^transvection_generators must hold transvections"):
        budget()._replace(transvection_generators=(gen,))


def test_equiv_identical_diagrams():
    d = vertex_link_curve(S2)
    v = equivalent_bounded(d, d, UT, budget())
    assert v.equivalent and v.certificate == ()


def test_equiv_one_stab():
    d = vertex_link_curve(S2)
    d2 = apply_move(d, MoveInstance("stab", (0, 3, "lr")))
    v = equivalent_bounded(d, d2, UT, budget())
    assert v.equivalent
    assert len(v.certificate) == 1
    assert diagrams_equal(replay(d, v.certificate), d2)


def test_equiv_distinguishes_component_count():
    d = vertex_link_curve(S2)
    d2 = d.with_components(list(d.components) + [()])
    v = equivalent_bounded(d, d2, UT, budget())
    assert v.status == "distinguished"
    assert v.invariant[0] == "component_count"


def test_equiv_distinguishes_shadow_class():
    d1 = smooth(edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    d2 = smooth(edge("b1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    v = equivalent_bounded(d1, d2, UT, budget())
    assert v.status == "distinguished"
    assert v.invariant[0] == "shadow_classes"


def test_distinguish_keys_shadow_classes_only_when_words_differ(monkeypatch):
    calls = []
    inner = moves_module.conjugacy_class_key
    monkeypatch.setattr(moves_module, "conjugacy_class_key",
                        lambda w, s: calls.append(w) or inner(w, s))
    # a stabilization keeps the shadow word: no conjugacy key is computed
    d1 = smooth(edge("a1"), qturn(1), qturn(1), qturn(1), edge("b1"), qturn(1), qturn(1), qturn(1))
    d2 = apply_move(d1, MoveInstance("stab", (0, 2, "lr")))
    assert moves_module._distinguish(d1, d2, UT, ()) is None and calls == []
    # a rotation changes the word's string, not its class: keyed, not told apart
    d3 = Diagram(S2, "smooth", (d1.components[0][4:] + d1.components[0][:4],))
    assert shadow_word(d1, 0) != shadow_word(d3, 0)
    assert moves_module._distinguish(d1, d3, UT, ()) is None and len(calls) == 2


def test_equiv_distinguishes_fiber():
    d1 = circle()  # turning 1
    d2 = smooth(kink(1), kink(1))  # turning 2; same contractible shadow
    v = equivalent_bounded(d1, d2, UT, budget())
    assert v.status == "distinguished"
    assert v.invariant[0] == "lift_class_fiber"


def test_equiv_fiber_gap_closed_by_transvection_generator():
    d1 = circle()
    gen = transvection([("a", 1, [(0, 0, 1)])])
    d2 = apply_move(d1, gen)  # one extra left loop: fiber degree 2
    v = equivalent_bounded(
        d1, d2, UT, budget(transvection_generators=(gen,), max_moves=2)
    )
    assert v.equivalent
    assert diagrams_equal(replay(d1, v.certificate), d2)


def test_equiv_uses_transvection_only_where_its_gap_fits():
    # gap 6 is past the end of d1's four events, but fits once a stab has
    # added two
    d1 = circle()
    gen = transvection([("a", 1, [(0, 6, 1)])])
    d2 = smooth(qturn(1), qturn(1), qturn(1), qturn(1), kink(1))
    with pytest.raises(InapplicableMove):
        apply_move(d1, gen)
    v = equivalent_bounded(d1, d2, UT, budget(transvection_generators=(gen,), max_moves=3))
    assert v.equivalent
    assert gen in v.certificate
    assert diagrams_equal(replay(d1, v.certificate), d2)


def counting(monkeypatch, name):
    """The arguments of every later call to moves.<name>, in call order."""
    calls = []
    inner = getattr(moves_module, name)
    monkeypatch.setattr(moves_module, name, lambda *a: calls.append(a) or inner(*a))
    return calls


def keyed_children(monkeypatch):
    """(its parent's code form, move) of every child that a later search
    keys, in keying order: each key its per-kind pass hands to the search."""
    calls = []
    inner = moves_module._child_keys

    def child_keys(form, name, sites):
        for site, key in zip(sites, inner(form, name, sites)):
            calls.append((form, MoveInstance(name, site)))
            yield key
    monkeypatch.setattr(moves_module, "_child_keys", child_keys)
    return calls


def test_equiv_skips_transvection_past_size_cap_before_keying_it(monkeypatch):
    # size_cap is 6 + 2 = 8 events; each flip of the weight-5 generator adds
    # 5 loops to the 4-event circle, so neither child gets a key (its growth
    # 1 in the move table only orders it)
    keys = counting(monkeypatch, "_reading")
    children = keyed_children(monkeypatch)
    gen = transvection([("a", 5, [(0, 0, 1)])])
    d2 = smooth(qturn(1), qturn(1), qturn(1), qturn(1), kink(1), kink(-1))
    v = equivalent_bounded(circle(), d2, UT, budget(max_moves=1, transvection_generators=(gen,)))
    assert v.certificate == (MoveInstance("stab", (0, 0, "lr")),)
    # d1, d2 and the assembled certificate's end; the one child keyed is the stab's
    assert len(keys) == 3
    assert [move for _, move in children] == [MoveInstance("stab", (0, 0, "lr"))]


EXHAUSTION_D1 = "surface genus=2 boundary=0\nbundle UT\ncomp: a1 X1.1 Q+ b1' X1.2 Q+ Q+ Q+ Q+ Q+\n"
EXHAUSTION_D2 = (
    "surface genus=2 boundary=0\nbundle UT\n"
    "comp: a1 X1.1 Q+ b1' a2 a2' Q+ Q+ X1.2 Q+ Q+ Q+ Q+ Q+\n"
)


def counting_sites(monkeypatch, name):
    """The code form of every later call to the sites of move kind <name>, in
    call order."""
    calls = []
    kind = moves_module._KINDS[name]
    monkeypatch.setitem(moves_module._KINDS, name,
                        kind._replace(sites=lambda d: calls.append(d) or kind.sites(d)))
    return calls


def test_equiv_exhaustion_pair_does_the_same_work(monkeypatch):
    # the benchmark's budget-exhaustion pair: no catalogue path connects them
    (d1, bundle), (d2, _) = parse(EXHAUSTION_D1), parse(EXHAUSTION_D2)
    roots, inner = [], moves_module._transform  # (diagram, (transform, code form))
    monkeypatch.setattr(moves_module, "_transform", lambda d: roots.append((d, inner(d))) or roots[-1][1])
    children = keyed_children(monkeypatch)
    # r2_remove shrinks most, so every expansion lists its sites first
    expansions = counting_sites(monkeypatch, "r2_remove")
    v = equivalent_bounded(d1, d2, bundle, budget(max_moves=6, max_states=2000))
    assert v.status == "unknown"
    # the two roots and 2,098 children are keyed, each child off its parent's bytes
    assert (len(roots), len(children), len(expansions)) == (2, 2098, 13)
    # the search expands d1 first, on the code form that keyed it; its
    # children's keys are the reference's
    assert roots[0][0] is d1 and expansions[0] is roots[0][1][1]
    assert expansions[0].components == moves_module._code_form(d1).components
    children = [apply_move(d1, move) for move in applicable_moves(d1)]
    pairs = set()
    for child in children:
        key, perm, rots = canonical_transform(child)
        ref_key, ref_perm, ref_rots = reference_canonical_transform(child)
        assert (perm, rots) == (ref_perm, ref_rots)
        pairs.add((key, ref_key))
    # two children share a key exactly when they share the reference's
    assert len(pairs) == len({k for k, _ in pairs}) == len({r for _, r in pairs})


def test_equiv_children_build_no_inverse_and_share_fresh_crossings(monkeypatch):
    # a search that ends unknown assembles no certificate, so it asks no kind
    # for an inverse and builds no diagram: it splices every child it keys
    # into its parent's bytes, and each of the 11 nodes it expands past the
    # roots once more; the r2_insert children of one parent splice the same
    # two fresh crossing pairs, made once for that parent
    (d1, bundle), (d2, _) = parse(EXHAUSTION_D1), parse(EXHAUSTION_D2)
    inverses, spliced, elsewhere, fresh, diagrams = [], [], [], {}, []
    monkeypatch.setattr(moves_module, "Diagram", lambda *a: diagrams.append(a) or Diagram(*a))
    for name, kind in list(moves_module._KINDS.items()):
        def inverse(d, m, inner=kind.inverse):
            inverses.append(m)
            return inner(d, m)

        def rewrite(form, sites, name=name, inner=kind.rewrite):
            is_bytes = type(form.components[0]) is bytes
            for site, comps in zip(sites, inner(form, sites)):
                (spliced if is_bytes else elsewhere).append(site)
                if is_bytes and name == "r2_insert":  # the form is kept, so its id stays its own
                    pieces = form[moves_module._R2_SLOTS[site[4:]]]
                    fresh.setdefault(id(form), (form, set()))[1].update(map(id, pieces))
                yield comps
        monkeypatch.setitem(moves_module._KINDS, name,
                            kind._replace(inverse=inverse, rewrite=rewrite))
    v = equivalent_bounded(d1, d2, bundle, budget(max_moves=6, max_states=2000))
    assert v.status == "unknown" and inverses == [] and diagrams == []
    # 2,098 keyed and 11 expanded, every one on bytes, none on event tuples
    assert (len(spliced), len(elsewhere)) == (2098 + 11, 0)
    assert len(fresh) > 1
    for form, pieces in fresh.values():
        first, second = form[1, 1]
        assert len(pieces) == 2 and len(first) == len(second) == 2
        # two crossing ids the parent does not use, each visited once per strand
        old = {b & 254 for b in form.components[0] if b >= 64}
        new = [b & 254 for b in first + second]
        assert len(set(new)) == 2 and not old & set(new) and sorted(new) == sorted(new[:2] * 2)
    # the hook sees the inverses that invert_move asks for
    invert_move(d1, MoveInstance("stab", (0, 0, "lr")))
    assert inverses == [MoveInstance("stab", (0, 0, "lr"))]


# criterion 09's 75th pair, scrambled by four moves: the two sides meet two
# moves from each root
TWO_SIDED_D1 = "surface genus=2 boundary=0\nbundle UT\ncomp: Q+ Q+ Q+ Q+\n"
TWO_SIDED_D2 = (
    "surface genus=2 boundary=0\nbundle UT\n"
    "comp: X3.1 X4.1 X1.1 X2.1 Q+ L+ X2.2 L- X1.2 Q+ Q+ X4.2 X3.2 Q+\n"
)


def test_equiv_assembles_a_certificate_from_both_sides_on_code_forms(monkeypatch):
    # the certificate's last two moves are the backward side's two moves,
    # inverted and transported to the end of the forward path; assembling it
    # builds no diagram, and it replays to d2
    (d1, bundle), (d2, _) = parse(TWO_SIDED_D1), parse(TWO_SIDED_D2)
    inverses, diagrams = [], []
    monkeypatch.setattr(moves_module, "Diagram", lambda *a: diagrams.append(a) or Diagram(*a))
    for name, kind in list(moves_module._KINDS.items()):
        monkeypatch.setitem(moves_module._KINDS, name, kind._replace(
            inverse=lambda d, m, inner=kind.inverse: inverses.append(m) or inner(d, m)))
    v = equivalent_bounded(d1, d2, bundle, budget())
    assert v.certificate == (
        MoveInstance("r2_insert", (0, 0, 0, 1)), MoveInstance("stab", (0, 4, "lr")),
        MoveInstance("kink_slide", (0, 3)), MoveInstance("r2_insert", (0, 0, 0, 9)),
    )
    assert [m.kind for m in inverses] == ["r2_remove", "kink_slide"] and diagrams == []
    assert diagrams_equal(replay(d1, v.certificate), d2)


def test_fresh_crossing_id():
    d = smooth(cross("1", 1), cross("1", 2), cross("3", 1), cross("3", 2))
    # an R2 insertion's strands take the two least unused ids, 2 and 4, in
    # every slot pair; a form makes each pair on first use and keeps it
    form = moves_module._Form(None, d.mode, d.components)
    fresh = form[1, 1]
    assert fresh == ((cross("2", 1), cross("4", 1)), (cross("4", 2), cross("2", 2)))
    assert form[2, 1] == ((cross("2", 2), cross("4", 1)), (cross("4", 2), cross("2", 1)))
    slots = [(s, t) for s in (1, 2) for t in (1, 2)]
    assert {ev[1] for st in slots for strand in form[st] for ev in strand} == {"2", "4"}
    assert form[1, 1] is fresh and set(form) == set(slots)
    # in codes, the two least ids that no code uses: a node using ids 32 and
    # 34 (codes 64-65 and 68-69) puts its strands on 33 and 35
    node = moves_module._coded(moves_module._code_table(S2), "smooth", (bytes([64, 65, 68, 69]),))
    assert node[1, 1] == (bytes([66, 70]), bytes([71, 67]))
    assert node[2, 1] == (bytes([67, 70]), bytes([71, 66]))


def pieces_asked(move):
    """The pieces of its form that the move's rewrite inserts."""
    if move.kind == "stab":
        return {move.site[2]}
    if move.kind == "r2_insert":
        return {moves_module._R2_SLOTS[move.site[4:]]}
    if move.kind == "transvection":
        return {weight * sign for _, weight, sites in move.site for _, _, sign in sites}
    return set()


def test_forms_put_only_the_pieces_their_rewrites_ask_for(monkeypatch):
    # each byte form puts a piece the first time one of its rewrites asks for
    # it, and keeps it: stabilization pairs, R2 strands and fiber-loop runs
    (d1, bundle), (d2, _) = parse(EXHAUSTION_D1), parse(EXHAUSTION_D2)
    gen = transvection([("a", 1, [(0, 0, 1), (0, 2, 1)])])
    puts, missing = [], moves_module._Form.__missing__
    monkeypatch.setattr(moves_module._Form, "__missing__",
                        lambda form, piece: puts.append((form, piece)) or missing(form, piece))
    calls = keyed_children(monkeypatch)  # (its parent's code form, move)
    v = equivalent_bounded(d1, d2, bundle, budget(max_moves=6, max_states=2000,
                                                  transvection_generators=(gen,)))
    assert v.status == "unknown"
    asked = {}
    for form, move in calls:
        asked.setdefault(id(form), (form, set()))[1].update(pieces_asked(move))
    put = sorted((id(form), repr(piece)) for form, piece in puts if id(form) in asked)
    assert put == sorted((i, repr(piece)) for i, (_, pieces) in asked.items() for piece in pieces)
    assert all(set(form) == pieces for form, pieces in asked.values())
    assert {piece for _, piece in puts} == {"lr", (1, 1), 1, -1}


def test_a_meet_among_the_shrinking_kinds_puts_no_piece(monkeypatch):
    # d1 is d2 after a stab: d1's first shrinking child, its destab, meets d2
    # before a growing kind's rewrite asks its form for a piece
    d2 = smooth(edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    d1 = apply_move(d2, MoveInstance("stab", (0, 3, "lr")))
    calls = keyed_children(monkeypatch)  # (its parent's code form, move)
    v = equivalent_bounded(d1, d2, UT, budget())
    assert v.equivalent and v.certificate == (MoveInstance("destab", (0, 3)),)
    [(form, move)] = calls
    assert form.components == moves_module._code_form(d1).components
    assert type(form) is moves_module._Form and len(form) == 0


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_search_moves_come_in_growth_order(rng):
    # each expansion keys the children of the moves applicable_moves lists, with the
    # generator flips that fit on the forward side, sorted stably by growth
    # and without those whose growth passes the size cap
    surface = Surface(rng.choice((2, 3)))
    mode, bundle = rng.choice([("smooth", CircleBundle.unit_tangent(surface)),
                               ("cusp", CircleBundle.projective_tangent(surface))])
    d1 = random_diagram(rng, surface, mode, n_components=rng.randint(1, 3),
                        max_loose_events=3, max_crossings=1)
    gens = []
    for _ in range(rng.randint(0, 2)):
        ci = rng.randrange(len(d1.components))
        site = (ci, rng.randint(0, len(d1.components[ci])), rng.choice((1, -1)))
        gens.append(transvection([("a", rng.choice((1, -1, 2)), [site])]))
    d2 = random_walk(rng, d1, rng.randint(1, 2))
    max_moves = rng.randint(1, 3)
    size_cap = max(sum(map(len, d.components)) for d in (d1, d2)) + 2 * max_moves
    flips = sorted(
        MoveInstance("transvection", tuple((w, n * f, sites) for w, n, sites in gen.site))
        for gen in gens for f in (1, -1)
    )

    def growth(move):
        if move.kind == "transvection":
            return sum(abs(n) * len(sites) for _, n, sites in move.site)
        return moves_module._KINDS[move.kind].growth

    def expected(d, forward):
        form = moves_module._code_form(d)
        fitting = [t for t in flips if forward and moves_module._transvection_match(form, t) is None]
        moves = sorted(applicable_moves(d) + fitting, key=lambda m: moves_module._KINDS[m.kind].growth)
        size = sum(map(len, d.components))
        return [m for m in moves if size + growth(m) <= size_cap]

    with pytest.MonkeyPatch.context() as monkeypatch:
        calls = keyed_children(monkeypatch)  # (its parent's code form, move)
        equivalent_bounded(d1, d2, bundle, budget(max_moves=max_moves, max_states=400,
                                                  transvection_generators=tuple(gens)))
    runs = [list(group) for _, group in itertools.groupby(calls, lambda c: id(c[0]))]
    for i, run in enumerate(runs):
        d, got = decoded(run[0][0]), [m for _, m in run]
        options = [expected(d, True), expected(d, False)]
        if i == len(runs) - 1:  # the search may stop inside its last expansion
            options = [ref[:len(got)] for ref in options]
        assert got in options, (d, got)


def decoded(form):
    """The diagram that a code form codes, each crossing id named by its number."""
    events = {ord(c): ev for ev, c in form.table.items()}
    comps = tuple(
        tuple(events[c] if c < 64 else cross(str(c >> 1), (c & 1) + 1)
              for c in (comp if type(comp) is bytes else map(ord, comp)))
        for comp in form.components
    )
    return Diagram(form.table.surface, form.mode, comps)


def test_equiv_lists_growing_sites_only_where_the_search_reaches_them(monkeypatch):
    # d2 is d1 after a stab and an r2_insert: the backward side's first
    # r2_remove child meets the forward side, before any of d2's r2_insert
    # sites are listed
    d1 = smooth(edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1))
    d2 = apply_move(apply_move(d1, MoveInstance("stab", (0, 1, "lr"))),
                    MoveInstance("r2_insert", (0, 0, 0, 4)))
    inserts = counting_sites(monkeypatch, "r2_insert")
    v = equivalent_bounded(d1, d2, UT, budget())
    assert v.equivalent and len(v.certificate) == 2
    assert [form.components for form in inserts] == [moves_module._code_form(d1).components]


def test_equiv_unknown_under_tiny_budget():
    d = vertex_link_curve(S2)
    d2 = d
    for p in (0, 2, 4):
        d2 = apply_move(d2, MoveInstance("stab", (0, p, "lr")))
    v = equivalent_bounded(d, d2, UT, budget(max_moves=1))
    assert v.status == "unknown"


def test_equiv_mode_mismatch():
    d1 = circle()
    d2 = Diagram(S2, "cusp", ((cusp(1), cusp(1)),))
    with pytest.raises(ModeMismatch):
        equivalent_bounded(d1, d2, UT, budget())


def test_equiv_certifies_pair_with_abutting_bigon():
    # the inverse of the backward r2_remove used to rebuild a different
    # bigon, and certificate assembly raised ValueError from site transport
    head = "surface genus=2 boundary=0\nbundle UT\n"
    d1, bundle = parse(head + "comp: Q+ a2 Q+ Q-\n")
    d2, _ = parse(head + "comp: Q+ X1.1 X4.2 X4.1 X1.2 a2 Q+ Q-\n")
    v = equivalent_bounded(d1, d2, bundle, budget())
    assert v.equivalent
    assert diagrams_equal(replay(d1, v.certificate), d2)


def test_equiv_certifies_bigon_across_the_wrap():
    # the second strand X2.2 X1.2 runs into the first X1.1 X2.1 across the
    # wrap; its r2_remove inverse must keep that order when transported
    head = "surface genus=2 boundary=0\nbundle UT\n"
    d1, bundle = parse(head + "comp: a1 Q+ Q+ b1\n")
    d2, _ = parse(head + "comp: X1.1 X2.1 a1 Q+ Q+ b1 X2.2 X1.2\n")
    v = equivalent_bounded(d1, d2, bundle, budget())
    assert v.equivalent and len(v.certificate) == 1
    assert diagrams_equal(replay(d1, v.certificate), d2)


def test_equiv_random_scrambles_replayable():
    rng = random.Random(11)
    for trial in range(8):
        d = random_diagram(rng, S2, "smooth", max_loose_events=4, max_crossings=1)
        cur = d
        for _ in range(rng.randint(1, 3)):
            moves = applicable_moves(cur)
            cur = apply_move(cur, rng.choice(moves))
        v = equivalent_bounded(d, cur, UT, budget())
        assert v.equivalent, f"trial {trial}: {v.status}"
        assert diagrams_equal(replay(d, v.certificate), cur)


def random_walk(rng, d, steps):
    for _ in range(steps):
        d = apply_move(d, rng.choice(applicable_moves(d)))
    return d


@settings(max_examples=60)
@given(st.randoms(use_true_random=False))
def test_equiv_agrees_with_reference_search(rng):
    # the bidirectional search certifies within k moves exactly when a plain
    # breadth-first search from d1 reaches d2 within k moves (except on paths
    # that end in a move whose inverse the catalogue does not list: below)
    mode, bundle = rng.choice([("smooth", UT), ("cusp", PT)])
    d1 = random_diagram(rng, S2, mode, max_loose_events=3, max_crossings=1)
    d2 = random_walk(rng, d1, rng.randint(1, 3))
    for k in (1, 2):
        v = equivalent_bounded(d1, d2, bundle, budget(max_moves=k, max_states=10**6))
        assert v.status != "distinguished"
        assert v.equivalent == (reference_distance(d1, d2, k) is not None), (d1, d2, k)
        if v.equivalent:
            assert diagrams_equal(replay(d1, v.certificate), d2)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the catalogue is not closed under inverses, so the backward side "
                   "cannot undo the last move of these paths (ROADMAP item 8)")
@pytest.mark.parametrize(
    "comp1, comp2",
    [
        ("Q+ L- b1' L+", "Q+ b1'"),  # kink_slide, then destab of the pair L- L+
        ("Q+ X1.1 a2 X1.2", "X3.1 Q+ X3.2 a2"),  # r2_insert, then r2_remove of a mixed bigon
    ],
)
def test_equiv_finds_reference_paths_ending_in_an_unlisted_inverse(comp1, comp2):
    head = "surface genus=2 boundary=0\nbundle UT\ncomp: "
    (d1, bundle), (d2, _) = parse(head + comp1), parse(head + comp2)
    assert reference_distance(d1, d2, 2) == 2
    assert equivalent_bounded(d1, d2, bundle, budget(max_moves=2)).equivalent


@settings(max_examples=40)
@given(st.randoms(use_true_random=False))
def test_equiv_with_walk_transvection_replays(rng):
    mode, bundle = rng.choice([("smooth", UT), ("cusp", PT)])
    d1 = random_diagram(rng, S2, mode, n_components=rng.randint(1, 2), max_loose_events=3,
                        max_crossings=1)
    ci = rng.randrange(len(d1.components))
    site = (ci, rng.randint(0, len(d1.components[ci])), rng.choice((1, -1)))
    gen = transvection([("a", rng.choice((1, -1, 2)), [site])])
    d2 = random_walk(rng, apply_move(d1, gen), rng.randint(1, 3))
    for k in (1, 2):
        v = equivalent_bounded(
            d1, d2, bundle, budget(max_moves=k, max_states=10**6, transvection_generators=(gen,))
        )
        assert v.status != "distinguished"
        if v.equivalent:
            assert diagrams_equal(replay(d1, v.certificate), d2)


def test_random_move_preserves_lift_class():
    rng = random.Random(5)
    for _ in range(40):
        mode = rng.choice(["smooth", "cusp"])
        bundle = UT if mode == "smooth" else PT
        d = random_diagram(rng, S2, mode)
        moves = applicable_moves(d)
        if not moves:
            continue
        d2 = apply_move(d, rng.choice(moves))
        for ci in range(len(d.components)):
            assert lift_class(d, bundle, ci) == lift_class(d2, bundle, ci)


# ----------------------------------------------------------------------
# serialization


def test_move_json_round_trip():
    moves = [
        MoveInstance("stab", (0, 2, "lr")),
        MoveInstance("destab", (0, 1)),
        MoveInstance("r2_insert", (0, 1, 0, 1, "12")),
        MoveInstance("r2_remove", ((0, 1), (1, 0))),
        MoveInstance("r3", ((0, 0), (0, 3), (0, 6))),
        transvection([("ab", 2, [(0, 1, 1)])]),
    ]
    for mv in moves:
        assert move_from_json(move_to_json(mv)) == mv
    # a transvection's curve data is written under "curves", its "site" empty
    two = transvection([("ab", 2, [(0, 1, 1)]), ("B", -1, [(0, 0, -1), (1, 3, 1)])])
    assert move_to_json(two) == {"kind": "transvection", "site": [], "curves": [
        {"word": "ab", "weight": 2, "sites": [[0, 1, 1]]},
        {"word": "B", "weight": -1, "sites": [[0, 0, -1], [1, 3, 1]]},
    ]}
    assert move_from_json(move_to_json(two)) == two
