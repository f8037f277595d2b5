"""Diagram data model, validation, shadow words, and the text format."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelift import (
    CircleBundle,
    Diagram,
    DiagramSyntaxError,
    NonIntegralTurning,
    Surface,
    parse,
    raw_turning,
    serialize,
    shadow_word,
    validate,
)
from curvelift.diagrams import cross, cusp, edge, fiber_degree, kink, qturn
from curvelift.words import least_rotation

from helpers import random_diagram, reference_turning

S2 = Surface(2)
UT = CircleBundle.unit_tangent(S2)


def smooth(*events):
    return Diagram(S2, "smooth", (tuple(events),))


def test_valid_empty_diagram():
    d = Diagram(S2, "smooth", ())
    assert validate(d) == []


def test_vertex_link_fixture_valid():
    d = smooth(*[edge(n) for n in ("a1", "b1", "a1'", "b1'", "a2", "b2", "a2'", "b2'")])
    assert validate(d) == []


def test_unknown_generator_flagged():
    d = smooth(edge("a3"))
    rules = [v.rule for v in validate(d)]
    assert "UnknownGenerator" in rules


def test_unpaired_crossing_flagged():
    d = smooth(cross("1", 1), qturn(1), qturn(1), qturn(1), qturn(1))
    violations = validate(d)
    assert any(v.rule == "UnpairedCrossing" and "1" in v.detail for v in violations)


def test_cusp_in_smooth_mode_flagged():
    d = smooth(cusp(1), cusp(-1))
    assert any(v.rule == "CuspInSmoothMode" for v in validate(d))


def test_odd_cusp_counts_are_valid():
    # PT's fiber unit is one cusp, so C^ turns 1/2 and lifts to fiber degree 1,
    # like Q+ Q+; C^ Q+ Q+ Q+ Q+ turns 3/2, like a cardioid.  fiber_degree is
    # the one integrality rule: no cusp parity rule stands beside it
    for events, fiber in [((cusp(1),), 1), ((qturn(1), qturn(1)), 1),
                          ((cusp(1),) + (qturn(1),) * 4, 3), ((cusp(1), cusp(-1), cusp(1)), 1)]:
        d = Diagram(S2, "cusp", (events,))
        assert validate(d) == [] and fiber_degree(d, 0) == fiber
    half = Diagram(S2, "cusp", ((cusp(1), qturn(1)),))
    assert [v.rule for v in validate(half)] == ["NonIntegralTurning"]


@pytest.mark.parametrize("event", [kink(2), ("qturn", 5), cusp(0), ("loop", 1)])
def test_unknown_event_flagged(event):
    # an event outside the fixed-event alphabet, built through the API; the
    # canonical key has no code for it
    for mode in ("smooth", "cusp"):
        circle = (qturn(1),) * 4
        d = Diagram(S2, mode, ((event, *circle), circle))
        assert [(v.rule, v.component) for v in validate(d)] == [("UnknownEvent", 0)]


def test_non_integral_turning_flagged():
    d = smooth(qturn(1))
    assert any(v.rule == "NonIntegralTurning" for v in validate(d))
    ok = smooth(qturn(1), qturn(1), qturn(1), qturn(1))
    assert validate(ok) == []
    # in cusp-smooth mode the turning must be a half-integer
    d = Diagram(S2, "cusp", ((qturn(1),),))
    assert [v.rule for v in validate(d)] == ["NonIntegralTurning"]
    assert validate(Diagram(S2, "cusp", ((qturn(1), qturn(1)),))) == []


def test_side_offset_of_one_side_components():
    # chi/4g per polygon side on a closed surface of genus g >= 1, 0 elsewhere
    for surface, offset in [(Surface(2), Fraction(-1, 4)), (Surface(3), Fraction(-1, 3)),
                            (Surface(1), 0), (Surface(2, 1), 0)]:
        for mode in ("smooth", "cusp"):
            assert raw_turning(Diagram(surface, mode, ((edge("a1"),),)), 0) == offset


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_turning_and_fiber_degree_follow_the_model_table(rng):
    # components drawn event by event on a closed or a bounded surface, so
    # their turning may leave the mode's grid by a quarter, a half or (a side
    # on closed genus 3) a third
    surface = rng.choice((Surface(0), Surface(1), Surface(2), Surface(3), Surface(0, 2),
                          Surface(2, 1)))
    mode = rng.choice(("smooth", "cusp"))
    events = [kink(1), kink(-1), cusp(1), cusp(-1), qturn(1), qturn(-1), cross("1", 1)]
    events += [edge(name + prime) for name in surface.generator_names for prime in ("", "'")]
    comps = [[rng.choice(events) for _ in range(rng.randint(0, 8))]
             for _ in range(rng.randint(1, 3))]
    d = Diagram(surface, mode, tuple(map(tuple, comps)))
    flagged = {v.component for v in validate(d) if v.rule == "NonIntegralTurning"}
    for ci, comp in enumerate(d.components):
        turning = reference_turning(surface, comp)
        assert raw_turning(d, ci) == turning
        fiber = turning * (2 if mode == "cusp" else 1)
        if fiber.denominator == 1:
            assert fiber_degree(d, ci) == fiber and ci not in flagged
        else:
            with pytest.raises(NonIntegralTurning):
                fiber_degree(d, ci)
            assert ci in flagged


@pytest.mark.parametrize("surface", [Surface(g) for g in range(6)] + [Surface(0, 2), Surface(2, 1)])
def test_random_diagrams_are_valid(surface):
    rng = random.Random(1)
    for mode in ("smooth", "cusp"):
        for _ in range(100):
            d = random_diagram(rng, surface, mode, n_components=rng.randint(1, 3))
            assert validate(d) == []


def test_shadow_word_reduction():
    d = smooth(edge("a1"), qturn(1), edge("b1"), edge("b1'"), edge("a2"))
    # b1 b1' cancels; cyclic order keeps a1 a2
    assert shadow_word(d, 0) == S2.encode("a1 a2")


def test_shadow_word_rotation_invariant():
    events = [edge("a1"), edge("b1"), edge("a2")]
    words = set()
    for r in range(3):
        rot = events[r:] + events[:r]
        words.add(least_rotation(shadow_word(smooth(*rot), 0))[0])
    assert len(words) == 1


def test_round_trip():
    text = (
        "surface genus=2 boundary=0\n"
        "bundle UT\n"
        "comp: a1 X1.1 Q+ L- b2' X1.2 Q+ Q+ Q+ Q+ Q+\n"
        "comp: L+\n"
    )
    d, b = parse(text)
    assert b == UT
    assert serialize(d, b) == text
    d2, b2 = parse(serialize(d, b))
    assert d2 == d and b2 == b


def test_parse_comments_and_blank_lines():
    text = "# header\nsurface genus=1 boundary=1\n\nbundle TRIVIAL  # note\ncomp: d1\n"
    d, b = parse(text)
    assert d.surface == Surface(1, 1)
    assert d.components == ((edge("d1"),),)


def test_parse_pt_mode():
    d, b = parse("surface genus=2 boundary=0\nbundle PT\ncomp: C^ Cv\n")
    assert d.mode == "cusp"
    assert b == CircleBundle.projective_tangent(S2)


@pytest.mark.parametrize(
    "text",
    [
        "",
        "surface genus=2\nbundle UT\n",
        "surface genus=2 boundary=0\n",
        "surface genus=2 boundary=0\nbundle XX\n",
        # the text format takes exactly UT|PT|TRIVIAL: no lower case, no CUSTOM
        "surface genus=2 boundary=0\nbundle ut\n",
        "surface genus=2 boundary=0\nbundle CUSTOM\n",
        "surface genus=2 boundary=0\nbundle UT\ncomp: zz\n",
        "surface genus=2 boundary=0\nbundle UT\ncomp: a9\n",
        "surface genus=2 boundary=0\nbundle UT\ncomp: X1.3\n",
        "surface genus=2 boundary=0\nbundle UT\ncomp: X1.1 X1.1\n",
        "surface genus=2 boundary=0\nbundle UT\nwhat: ever\n",
        # annotations are rejected by the plain parser
        "surface genus=2 boundary=0\nbundle UT\ncomp: a1\ntwist: 0 0 1\n",
    ],
)
def test_parse_errors(text):
    with pytest.raises(DiagramSyntaxError):
        parse(text)


def test_syntax_error_reports_line():
    try:
        parse("surface genus=2 boundary=0\nbundle UT\ncomp: zz\n")
    except DiagramSyntaxError as exc:
        assert exc.line == 3
    else:  # pragma: no cover
        raise AssertionError("expected a syntax error")


@pytest.mark.parametrize(
    "make", [CircleBundle.unit_tangent, CircleBundle.projective_tangent, CircleBundle.trivial]
)
def test_serialize_round_trips_bundle(make):
    bundle = make(S2)
    mode = "cusp" if bundle.kind.value == "PT" else "smooth"
    d = Diagram(S2, mode, ((edge("a1"), qturn(1), qturn(1), qturn(1), qturn(1)),))
    assert parse(serialize(d, bundle)) == (d, bundle)


def test_serialize_rejects_custom_bundle():
    # a custom bundle used to come back as TRIVIAL, with Euler number 0
    with pytest.raises(ValueError, match="Euler number 5"):
        serialize(smooth(qturn(1), qturn(1), qturn(1), qturn(1)), CircleBundle.custom(S2, 5))


def test_empty_component_serializes_without_trailing_space():
    d = Diagram(S2, "smooth", ((),))
    text = serialize(d, UT)
    assert "comp:\n" in text
    d2, _ = parse(text)
    assert d2 == d

