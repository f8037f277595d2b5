"""Surfaces, word codec, presentations, and circle-bundle bookkeeping."""

import pytest

from curvelift import (
    BundleKind,
    CircleBundle,
    Surface,
    bundle_pi1_presentation,
    surface_pi1_presentation,
)


def test_euler_characteristic():
    assert Surface(0).euler_char == 2
    assert Surface(2).euler_char == -2
    assert Surface(1, 1).euler_char == -1
    assert Surface(3, 2).euler_char == -6


def test_generator_names_and_codec():
    s = Surface(2, 1)
    assert s.generator_names == ("a1", "b1", "a2", "b2", "d1")
    assert s.encode("a1 b1' d1") == "aBe"
    assert s.decode("aBe") == ("a1", "b1'", "d1")
    assert s.char_of("a2'") == "C"
    with pytest.raises(KeyError):
        s.char_of("d2")


@pytest.mark.parametrize("surface", [Surface(0), Surface(1), Surface(2), Surface(3), Surface(0, 2),
                                     Surface(2, 1)])
def test_codec_encodes_each_token_and_names_an_unknown_one(surface):
    tokens = []
    for i, name in enumerate(surface.generator_names):
        ch = surface.generator_chars[i]
        assert (surface.char_of(name), surface.char_of(name + "'")) == (ch, ch.upper())
        tokens += [name, name + "'"]
    word = surface.encode(tokens)
    assert surface.encode(" ".join(tokens)) == word and surface.decode(word) == tuple(tokens)
    for token, base in [("d3", "d3"), ("a4'", "a4"), ("a1''", "a1'"), ("t", "t"), ("", "")]:
        message = f"unknown generator {base!r} for {surface}"
        for call in (surface.char_of, lambda tok: surface.encode([tok])):
            with pytest.raises(KeyError) as exc:
                call(token)
            assert exc.value.args == (message,)


def test_surface_presentation_is_shared_and_immutable():
    pres = surface_pi1_presentation(Surface(2, 1))
    assert surface_pi1_presentation(Surface(2, 1)) is pres
    assert all(type(field) is tuple for field in pres)
    with pytest.raises(AttributeError):
        pres.relators = ("a",)


def test_fiber_char_not_a_generator():
    # 't' is reserved for the bundle fiber on every supported surface
    big = Surface(9, 7)
    assert "t" not in big.generator_chars


def test_boundary_word():
    assert Surface(1).boundary_word() == "abAB"
    assert Surface(2).boundary_word() == "abABcdCD"
    assert Surface(1, 2).boundary_word() == "abABcd"


def test_relator_only_for_closed_positive_genus():
    assert Surface(2).relator() == "abABcdCD"
    assert Surface(0).relator() is None
    assert Surface(2, 1).relator() is None


def test_surface_presentation_closed():
    pres = surface_pi1_presentation(Surface(2))
    assert pres.generators == ("a", "b", "c", "d")
    assert pres.relators == ("abABcdCD",)
    assert pres.display_word("aB") == "a1 b1'"


def test_surface_presentation_bounded_is_free():
    pres = surface_pi1_presentation(Surface(1, 2))
    # d2 is eliminated; free of rank 2g + k - 1
    assert pres.generators == ("a", "b", "c")
    assert pres.relators == ()


@pytest.mark.parametrize(
    "maker,euler",
    [
        (CircleBundle.unit_tangent, -2),
        (CircleBundle.projective_tangent, -4),
        (CircleBundle.trivial, 0),
    ],
)
def test_bundle_euler_numbers_sigma2(maker, euler):
    assert maker(Surface(2)).euler_number == euler


def test_bounded_base_forces_trivial_euler_number():
    s = Surface(2, 1)
    assert CircleBundle.unit_tangent(s).euler_number == 0
    assert CircleBundle.projective_tangent(s).euler_number == 0
    with pytest.raises(ValueError):
        CircleBundle(s, BundleKind.CUSTOM, 3)


def test_wrong_euler_number_rejected():
    with pytest.raises(ValueError):
        CircleBundle(Surface(2), BundleKind.UNIT_TANGENT, 5)


def test_bundle_presentation_closed():
    pres = bundle_pi1_presentation(CircleBundle.unit_tangent(Surface(2)))
    assert pres.generators == ("a", "b", "c", "d", "t")
    # commutators with the central fiber, then the Euler relator
    assert pres.relators[:4] == ("atAT", "btBT", "ctCT", "dtDT")
    assert pres.relators[4] == "abABcdCDtt"  # e = -2


def test_bundle_presentation_bounded():
    pres = bundle_pi1_presentation(CircleBundle.trivial(Surface(1, 2)))
    assert pres.generators == ("a", "b", "c", "t")
    assert all(rel.count("t") + rel.count("T") == 2 for rel in pres.relators)
    assert len(pres.relators) == 3  # commutators only, no Euler relator
