"""Britton reduction over HNN extensions of free groups."""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from curvelift import (
    HNNExtension,
    HNNWord,
    MalformedAssociatedSubgroup,
    britton_reduce,
    is_trivial_hnn,
)

from helpers import reference_britton_reduce


def make_ext():
    return HNNExtension(
        generators=("a", "b", "c", "d", "e"),
        a_letters=frozenset("ab"),
        b_letters=frozenset("cd"),
        phi=(("a", "c"), ("b", "d")),
    )


def test_extension_validation():
    make_ext()
    with pytest.raises(MalformedAssociatedSubgroup):
        HNNExtension(("a", "b"), frozenset("a"), frozenset("b"), (("a", "a"),))
    with pytest.raises(MalformedAssociatedSubgroup):
        HNNExtension(("a", "b"), frozenset("az"), frozenset("b"), (("a", "b"),))


def test_phi_word():
    ext = make_ext()
    assert ext.phi_word("aB") == "cD"
    assert ext.phi_inverse_word("cD") == "aB"
    with pytest.raises(MalformedAssociatedSubgroup):
        ext.phi_word("e")


def test_from_items_and_inverse():
    ext = make_ext()
    hw = HNNWord.from_items(ext, ["a", 1, "e", -2, "b"])
    assert hw.base_words == ("a", "e", "", "b")
    assert hw.signs == (1, -1, -1)
    inv = hw.formal_inverse()
    assert inv.signs == (1, 1, -1)
    assert inv.base_words == ("B", "", "E", "A")
    assert is_trivial_hnn(hw.concat(inv))


def test_pinch_reduction():
    ext = make_ext()
    # t a t^-1 = c
    hw = HNNWord.from_items(ext, [1, "a", -1])
    red = britton_reduce(hw)
    assert red.t_length == 0
    assert red.base_words == ("c",)
    # t^-1 c t = a
    hw = HNNWord.from_items(ext, [-1, "c", 1])
    assert britton_reduce(hw).base_words == ("a",)


def test_pinch_free_is_stable():
    ext = make_ext()
    # middle 'e' lies in neither associated subgroup: no pinch
    hw = HNNWord.from_items(ext, [1, "e", -1])
    red = britton_reduce(hw)
    assert red.t_length == 2
    assert not red.has_pinch()
    assert not is_trivial_hnn(hw)


def test_nested_pinches_collapse():
    ext = make_ext()
    # t ( t a t^-1 ) A' t^-1 with the inner pinch producing c, then cA is not
    # in <a,b>... build a fully collapsing word instead: t a t^-1 C
    hw = HNNWord.from_items(ext, [1, "a", -1, "C"])
    assert is_trivial_hnn(hw)
    # nested: t^-1 ( t b t^-1 ) t = b after two pinches
    hw = HNNWord.from_items(ext, [-1, 1, "b", -1, 1])
    red = britton_reduce(hw)
    assert red.t_length == 0 and red.base_words == ("b",)


def test_trivial_detection_requires_empty_base():
    ext = make_ext()
    assert not is_trivial_hnn(HNNWord.from_items(ext, ["e"]))
    assert is_trivial_hnn(HNNWord.from_items(ext, ["aA"]))


def test_overlapping_associated_subgroups():
    ext = HNNExtension(
        generators=("a", "b", "c"),
        a_letters=frozenset("ab"),
        b_letters=frozenset("bc"),
        phi=(("a", "b"), ("b", "c")),
    )
    # t a t^-1 = b, then t b t^-1 = c
    hw = HNNWord.from_items(ext, [2, "a", -2])
    red = britton_reduce(hw)
    assert red.t_length == 0 and red.base_words == ("c",)


def random_hnn_items(rng, t_length):
    """Items of a word over make_ext() whose base words lie in <a, b>, in
    <c, d>, or in neither, so that pinches nest and chain."""
    items = []
    for _ in range(t_length):
        letters = rng.choice(("ab", "cd", "abcde"))
        items.append("".join(rng.choice(letters + letters.upper()) for _ in range(rng.randint(0, 3))))
        items.append(rng.choice((1, -1)))
    items.append(rng.choice(("", "a", "e")))
    return items


@settings(max_examples=300)
@given(st.randoms(use_true_random=False))
def test_britton_reduce_matches_rescan_from_start(rng):
    ext = make_ext()
    hw = HNNWord.from_items(ext, random_hnn_items(rng, rng.randint(0, 12)))
    for word in (hw, hw.concat(hw.formal_inverse())):
        reduced = britton_reduce(word)
        assert reduced == reference_britton_reduce(word)
        assert word.has_pinch() == (reduced.t_length < word.t_length)
        assert not reduced.has_pinch()


def test_britton_reduce_is_linear_on_word_times_inverse():
    # every pinch of w w^-1 sits in the middle of what is left; rescanning
    # from the start after each one made t-length 600 take about 0.1 s
    rng = random.Random(6)
    ext = make_ext()
    items = ["a"]
    for _ in range(600):
        items += [rng.choice((1, -1)), rng.choice(("e", "aE", "Ec", "bed"))]
    hw = HNNWord.from_items(ext, items)
    assert britton_reduce(hw).t_length == 600
    word = hw.concat(hw.formal_inverse())
    t0 = time.perf_counter()
    reduced = britton_reduce(word)
    elapsed = time.perf_counter() - t0
    assert reduced.t_length == 0 and reduced.base_words == ("",)
    assert elapsed < 0.04, f"{elapsed:.3f} s"
