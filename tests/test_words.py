"""Free/cyclic reduction, Dehn's algorithm, conjugacy, and the exponent-sum
obstruction for products of conjugates."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelift import (
    CONSISTENT,
    GroupElementExpr,
    Surface,
    UnsupportedSurface,
    conjugacy_class_key,
    conjugate_classes_equal,
    cyclic_dehn_reduce,
    cyclic_reduce,
    dehn_reduce,
    exponent_sum,
    free_reduce,
    inverse_word,
    is_trivial,
    powersum_check,
)
from curvelift.words import _join, _rotations, least_rotation

from helpers import random_word, reference_cyclic_dehn_reduce, reference_dehn_reduce

S2 = Surface(2)


def test_inverse_word():
    assert inverse_word("aB") == "bA"
    assert inverse_word("") == ""
    assert free_reduce("aB" + inverse_word("aB")) == ""


def test_free_reduce():
    assert free_reduce("aA") == ""
    assert free_reduce("abBA") == ""
    assert free_reduce("abAB") == "abAB"
    assert free_reduce("aabBAc") == "ac"


def test_cyclic_reduce():
    assert cyclic_reduce("Aba") == "b"
    assert cyclic_reduce("abA") == "b"
    assert cyclic_reduce("ab") == "ab"
    assert cyclic_reduce("aA") == ""


def test_relator_is_trivial():
    rel = S2.relator()
    assert is_trivial(rel, S2)
    assert is_trivial(inverse_word(rel), S2)
    assert is_trivial(rel + rel, S2)
    assert is_trivial("", S2)


def test_conjugated_relator_products_trivial():
    rng = random.Random(3)
    rel = S2.relator()
    for _ in range(50):
        parts = []
        for _ in range(rng.randint(1, 3)):
            g = random_word(rng, S2, rng.randint(0, 5))
            core = rel if rng.random() < 0.5 else inverse_word(rel)
            parts.append(inverse_word(g) + core + g)
        assert is_trivial("".join(parts), S2)


def test_nontrivial_words_do_not_vanish():
    assert not is_trivial("a", S2)
    assert not is_trivial("abAB", S2)  # commutator: trivial in H1 only at g=1
    assert dehn_reduce("a" * 10, S2) == "a" * 10


def test_dehn_reduce_shortens_long_relator_overlap():
    rel = S2.relator()
    # word containing > half the relator gets replaced by the complement
    w = rel[:6] + "a"
    reduced = dehn_reduce(w, S2)
    assert len(reduced) <= len(w)


def test_unsupported_surfaces():
    with pytest.raises(UnsupportedSurface):
        dehn_reduce("a", Surface(1))
    with pytest.raises(UnsupportedSurface):
        is_trivial("", Surface(0))


def test_free_group_path():
    s = Surface(1, 1)  # free group on a1, b1: d1 = (a1 b1 a1' b1')^-1
    assert dehn_reduce("abAB", s) == "abAB"
    assert is_trivial("aA", s)
    assert is_trivial(s.boundary_word(), s)
    assert dehn_reduce("c", s) == "baBA"
    assert conjugacy_class_key("c", s) == conjugacy_class_key("abAB", s)
    s = Surface(2, 2)  # d2 = (prod [a_i, b_i] d1)^-1
    assert is_trivial(s.boundary_word(), s)
    assert cyclic_dehn_reduce("f" + s.boundary_word()[:-1], s) == ""
    assert not is_trivial("e", s)


def test_cyclic_dehn_reduce():
    rel = S2.relator()
    assert cyclic_dehn_reduce(rel, S2) == ""
    # conjugates of a short word collapse to the same cyclic class
    assert least_rotation(cyclic_dehn_reduce("Bab", S2))[0] == least_rotation("a")[0]


def test_conjugate_classes_equal():
    assert conjugate_classes_equal("ab", "ba", S2)
    assert conjugate_classes_equal("cab", "abc", S2)
    assert conjugate_classes_equal("a", "A", S2)  # orientation flip
    assert not conjugate_classes_equal("a", "b", S2)
    assert conjugate_classes_equal(S2.relator(), "", S2)


def test_conjugacy_class_key_flip_symmetric():
    assert conjugacy_class_key("ab", S2) == conjugacy_class_key("BA", S2)
    assert conjugacy_class_key("Bab", S2) == conjugacy_class_key("a", S2)


def test_group_element_expr():
    expr = GroupElementExpr("ab", (("c", 1), ("", -1)))
    assert exponent_sum(expr) == 0
    assert expr.product_word() == free_reduce("CabcBA")
    with pytest.raises(ValueError):
        GroupElementExpr("a", (("", 2),))


def test_powersum_check_basic():
    # trivial w: anything goes
    assert powersum_check(GroupElementExpr("", (("a", 1),)), S2) == CONSISTENT
    # zero exponent sum
    expr = GroupElementExpr("ab", (("c", 1), ("d", -1)))
    assert powersum_check(expr, S2) == CONSISTENT
    # nonzero exponent sum, nontrivial product
    expr = GroupElementExpr("ab", (("c", 1), ("d", 1)))
    assert powersum_check(expr, S2) == CONSISTENT


def least_and_starts(word, *least):
    """least_rotation's least rotation and its starts, listed."""
    best, r, period = least_rotation(word, *least)
    return best, list(range(r, len(word) or 1, period))


def every_rotation(word):
    """The least rotation of word and every start of it, by listing all."""
    rotations = _rotations(word) or [word]
    least = min(rotations)
    return least, [r for r, w in enumerate(rotations) if w == least]


def test_least_rotation_is_the_least_of_every_rotation():
    rng = random.Random(7)
    words = ["", "a", "aaaa", "abab", "abAabAab", "BaBaBa"]  # powers and periodic words
    for _ in range(500):
        word = random_word(rng, Surface(rng.choice((1, 2))), rng.randint(1, 12))
        words.append(word * rng.choice((1, 1, 2, 3)))
    for word in words:
        assert least_and_starts(word) == every_rotation(word)
        best, r, period = least_rotation(word)
        assert 0 <= r < period and len(word) % period == 0 or word == ""


def test_least_rotation_keeps_the_input_type():
    # bytes read as the str of the same code points, empty input included
    for word in ["", "a", "aaaa", "abAabAab", "BaBaBa", "\x00b\x01a\x00"]:
        least, starts = least_and_starts(word.encode("latin-1"))
        assert type(least) is bytes
        assert (least.decode("latin-1"), starts) == least_and_starts(word)
    assert least_rotation("") == ("", 0, 1) and least_rotation(b"") == (b"", 0, 1)


@settings(max_examples=300)
@given(st.lists(st.sampled_from(b"\x00\x01\x02\x05"), max_size=14), st.integers(1, 4),
       st.integers(0, 6))
def test_least_rotation_with_a_least_letter_lists_every_least_start(letters, power, hint):
    # str and bytes, powers (tied starts) and the empty word; the least letter
    # given is one that occurs, one below every letter, or none
    word = bytes(letters) * power
    for w, least in ((word, min(word, default=hint)), (word, 0), (word, None)):
        expected = every_rotation(w)
        assert least_and_starts(w, least) == expected
        text = w.decode("latin-1")
        hint_letter = None if least is None else chr(least)
        assert least_and_starts(text, hint_letter) == (expected[0].decode("latin-1"), expected[1])


@st.composite
def relator_pieces_in_noise(draw):
    """A genus 2-4 surface and a word of random noise with pieces of relator
    rotations, each at least half a relator long, inserted between."""
    surface = Surface(draw(st.integers(2, 4)))
    rel = surface.relator()
    noise = st.text(surface.generator_chars + surface.generator_chars.upper(), max_size=6)
    parts = [draw(noise)]
    for _ in range(draw(st.integers(0, 8))):
        k = draw(st.integers(0, len(rel) - 1))
        rot = rel[k:] + rel[:k]
        if draw(st.booleans()):
            rot = inverse_word(rot)
        parts += [rot[: draw(st.integers(len(rel) // 2, len(rel)))], draw(noise)]
    return surface, "".join(parts)


@settings(max_examples=400)
@given(relator_pieces_in_noise(), st.text("abAB", max_size=12), st.text("abAB", max_size=12),
       st.integers(0, 12))
def test_dehn_matches_the_full_reduction_reference(case, left, right, overlap):
    surface, w = case
    assert dehn_reduce(w, surface) == reference_dehn_reduce(w, surface)
    r = reference_cyclic_dehn_reduce(w, surface)
    assert cyclic_dehn_reduce(w, surface) == r
    assert conjugacy_class_key(w, surface) == min(
        x[i:] + x[:i] for x in (r, inverse_word(r)) for i in range(max(len(x), 1))
    )
    # the splice join on freely reduced words; the overlap makes the junction cancel
    left = free_reduce(left)
    right = free_reduce(inverse_word(left[max(len(left) - overlap, 0) :]) + right)
    assert _join(left, right) == free_reduce(left + right)
