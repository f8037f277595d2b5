"""Turning numbers, lift classes, the calibration curve, and twisted-shadow
canonicalization."""

from fractions import Fraction

import pytest

from curvelift import (
    CircleBundle,
    Diagram,
    LiftClass,
    ModeMismatch,
    NonIntegralTurning,
    Surface,
    TwistedShadow,
    canonicalize,
    lift_class,
    parse_twisted_shadow,
    raw_turning,
    serialize_twisted_shadow,
    shadow_homology_vector,
    fiber_degree,
    turning_delta,
    vertex_link_curve,
)
from curvelift.diagrams import cross, cusp, edge, kink, qturn

S2 = Surface(2)
UT = CircleBundle.unit_tangent(S2)
PT = CircleBundle.projective_tangent(S2)


def smooth(*events):
    return Diagram(S2, "smooth", (tuple(events),))


def test_raw_turning_contributions():
    d = smooth(qturn(1), kink(1), edge("a1"))
    # 1/4 + 1 - 1/4 (edge offset on Sigma_2)
    assert raw_turning(d, 0) == 1


def test_fiber_degree_smooth_requires_integer_turning():
    d = smooth(qturn(1))
    assert raw_turning(d, 0) == Fraction(1, 4)
    with pytest.raises(NonIntegralTurning):
        fiber_degree(d, 0)
    d = smooth(kink(1))
    assert raw_turning(d, 0) == 1 and fiber_degree(d, 0) == 1


def test_fiber_degree_cusp_is_twice_half_integer_turning():
    d = Diagram(S2, "cusp", ((cusp(1),),))
    assert raw_turning(d, 0) == Fraction(1, 2) and fiber_degree(d, 0) == 1
    d = Diagram(S2, "cusp", ((cusp(1), cusp(1)),))
    assert raw_turning(d, 0) == 1 and fiber_degree(d, 0) == 2
    bad = Diagram(S2, "cusp", ((qturn(1),),))
    assert raw_turning(bad, 0) == Fraction(1, 4)
    with pytest.raises(NonIntegralTurning):
        fiber_degree(bad, 0)


def test_contractible_circle_lift_class():
    d = smooth(qturn(1), qturn(1), qturn(1), qturn(1))
    lc = lift_class(d, UT, 0)
    assert lc == LiftClass((0, 0, 0, 0), 1, -2)


def test_lift_class_fiber_reduction():
    d = smooth(kink(-1))  # turning -1, mod |e|=2 -> 1
    assert lift_class(d, UT, 0).fiber_part == 1


def test_lift_class_trivial_bundle_keeps_integer():
    s = Surface(1, 1)
    b = CircleBundle.trivial(s)
    d = Diagram(s, "smooth", ((kink(-1), kink(-1)),))
    assert lift_class(d, b, 0).fiber_part == -2


def test_pt_fiber_is_twice_turning():
    d = Diagram(S2, "cusp", ((cusp(1), cusp(1)),))
    lc = lift_class(d, PT, 0)  # turning 1 -> fiber 2 mod |e| = 4
    assert lc.fiber_part == 2 and lc.euler_number == -4


def test_mode_mismatch():
    d = smooth(kink(1))
    with pytest.raises(ModeMismatch):
        lift_class(d, PT, 0)
    with pytest.raises(ModeMismatch):
        lift_class(d, CircleBundle.unit_tangent(Surface(3)), 0)


def test_shadow_homology_vector_closed():
    d = smooth(edge("a1"), edge("a1"), edge("b2'"))
    assert shadow_homology_vector(d, 0) == (2, 0, 0, -1)


def test_shadow_homology_vector_bounded_folds_last_boundary():
    s = Surface(1, 2)
    d = Diagram(s, "smooth", ((edge("d1"), edge("d2")),))
    # [d2] = -[d1] in the free basis a, b, d1
    assert shadow_homology_vector(d, 0) == (0, 0, 0)


@pytest.mark.parametrize("g", [2, 3, 4])
def test_vertex_link_turning_is_euler_characteristic(g):
    s = Surface(g)
    d = vertex_link_curve(s)
    assert raw_turning(d, 0) == 2 - 2 * g
    assert fiber_degree(d, 0) == 2 - 2 * g


def test_vertex_link_is_nullhomologous():
    d = vertex_link_curve(S2)
    assert shadow_homology_vector(d, 0) == (0, 0, 0, 0)


# ----------------------------------------------------------------------
# twisted shadows


def base_shadow():
    # turning: 2 edges at -1/4 each, 6 quarter turns -> integral total 1
    return smooth(
        edge("a1"), qturn(1), edge("a1'"), qturn(1), qturn(1), qturn(1), qturn(1), qturn(1)
    )


def test_twisted_shadow_validation():
    d = base_shadow()
    TwistedShadow(d, twists=(((0, 2), 3),))
    with pytest.raises(ValueError):
        TwistedShadow(d, twists=(((0, 99), 1),))
    with pytest.raises(ValueError):
        TwistedShadow(d, crossing_fixes=(("9", "left"),))
    with pytest.raises(ValueError):
        TwistedShadow(d, corner_modes=(((0, 0), "through_loop"),))  # not a qturn
    with pytest.raises(ValueError):
        TwistedShadow(smooth(kink(1)))
    x = smooth(cross("1", 1), qturn(1), cross("1", 2), qturn(1), qturn(1), qturn(1))
    with pytest.raises(ValueError, match="two fix annotations of 1"):
        TwistedShadow(x, crossing_fixes=(("1", "left"), ("1", "left")))


def test_canonicalize_twist_inserts_kinks():
    shadow = TwistedShadow(base_shadow(), twists=(((0, 2), 3),))
    out = canonicalize(shadow, UT)
    events = out.components[0]
    # exactly three left kinks, inserted before the annotated event
    assert events[2:5] == (("kink", 1),) * 3
    assert sum(1 for ev in events if ev[0] == "kink") == 3
    assert raw_turning(out, 0) - raw_turning(shadow.diagram, 0) == 3
    assert turning_delta(shadow) == 3


def test_canonicalize_negative_twist():
    shadow = TwistedShadow(base_shadow(), twists=(((0, 0), -2),))
    out = canonicalize(shadow, UT)
    assert out.components[0][:2] == (("kink", -1),) * 2
    assert turning_delta(shadow) == -2


def test_canonicalize_crossing_fix_is_turning_neutral():
    d = smooth(cross("1", 1), qturn(1), cross("1", 2), qturn(1), qturn(1), qturn(1))
    shadow = TwistedShadow(d, crossing_fixes=(("1", "left"),))
    out = canonicalize(shadow, UT)
    events = out.components[0]
    assert events[0] == ("kink", 1)
    assert events[1][0] == "cross"
    assert events[2] == ("kink", -1)
    assert raw_turning(out, 0) == raw_turning(d, 0)
    assert turning_delta(shadow) == 0


def test_canonicalize_through_loop_corner():
    d = base_shadow()
    shadow = TwistedShadow(d, corner_modes=(((0, 1), "through_loop"),))
    out = canonicalize(shadow, UT)
    events = out.components[0]
    assert events[1] == ("qturn", 1)
    assert events[2] == ("kink", -1)
    assert raw_turning(out, 0) - raw_turning(d, 0) == -1
    assert turning_delta(shadow) == -1


def test_turning_delta_is_the_total_over_components():
    # the two components' turnings change by +2 and -3; turning_delta is their sum
    d = Diagram(S2, "smooth", base_shadow().components * 2)
    shadow = TwistedShadow(d, twists=(((0, 1), 2), ((1, 3), -3)))
    out = canonicalize(shadow, UT)
    changes = [raw_turning(out, ci) - raw_turning(d, ci) for ci in (0, 1)]
    assert changes == [2, -3]
    assert turning_delta(shadow) == sum(changes) == -1


def test_canonicalize_pt_uses_cusp_pairs():
    d = Diagram(S2, "cusp", ((qturn(1), qturn(1),),))
    shadow = TwistedShadow(d, twists=(((0, 0), 2),))
    out = canonicalize(shadow, PT)
    events = out.components[0]
    assert events[:4] == (("cusp", 1),) * 4  # 2 twists -> 2 same-side pairs
    assert raw_turning(out, 0) - raw_turning(d, 0) == 2


def test_canonicalize_twists_an_empty_component():
    # an empty component's one segment is (0, 0): its twist inserts the loops
    # that turning_delta counts, in either mode
    for bundle, mode, loop in ((UT, "smooth", kink(1)), (PT, "cusp", cusp(1))):
        d = Diagram(S2, mode, ((),))
        shadow = TwistedShadow(d, twists=(((0, 0), 2),))
        out = canonicalize(shadow, bundle)
        assert set(out.components[0]) == {loop}
        assert raw_turning(out, 0) - raw_turning(d, 0) == turning_delta(shadow) == 2


def test_twisted_shadow_text_round_trip():
    d = smooth(cross("1", 1), qturn(1), cross("1", 2), qturn(1), qturn(1), qturn(1))
    shadow = TwistedShadow(
        d,
        twists=(((0, 1), 2),),
        crossing_fixes=(("1", "right"),),
        corner_modes=(((0, 3), "through_loop"),),
    )
    text = serialize_twisted_shadow(shadow, UT)
    back, bundle = parse_twisted_shadow(text)
    assert back == shadow and bundle == UT
