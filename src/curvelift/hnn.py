"""Britton reduction for HNN extensions of free groups.

The base group is free on a finite set of one-char generators and the
associated subgroups are the free factors spanned by declared generator
subsets, with the stable-letter isomorphism given letterwise.  Membership in
an associated subgroup is decided by the support of the reduced word, which
is exactly what makes pinch detection effective.
"""

from __future__ import annotations

from collections import namedtuple

from .errors import MalformedAssociatedSubgroup
from .words import free_reduce, inverse_word


class HNNExtension(namedtuple("HNNExtension", "generators a_letters b_letters phi")):
    """<base gens, t | t h t^{-1} = phi(h) for h in <A>>, with A, B generator
    subsets and phi a letterwise bijection A -> B, as (a, phi(a)) pairs."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, generators: tuple[str, ...], a_letters: frozenset[str],
                b_letters: frozenset[str], phi: tuple[tuple[str, str], ...]):
        self = tuple.__new__(cls, (generators, a_letters, b_letters, phi))
        gens = set(self.generators)
        table = dict(self.phi)
        if not self.a_letters <= gens or not self.b_letters <= gens:
            raise MalformedAssociatedSubgroup("associated letters must be generators")
        if set(table) != set(self.a_letters) or set(table.values()) != set(self.b_letters):
            raise MalformedAssociatedSubgroup("phi must be a bijection A -> B")
        if len(table) != len(set(table.values())):
            raise MalformedAssociatedSubgroup("phi must be injective")
        return self

    def _map(self, word: str, table: dict[str, str], domain: frozenset[str]) -> str:
        out = []
        for ch in word:
            base = ch.lower()
            if base not in domain:
                raise MalformedAssociatedSubgroup(
                    f"letter {base!r} outside associated subgroup"
                )
            img = table[base]
            out.append(img.upper() if ch.isupper() else img)
        return "".join(out)

    def phi_word(self, word: str) -> str:
        return self._map(word, dict(self.phi), self.a_letters)

    def phi_inverse_word(self, word: str) -> str:
        inv_table = {b: a for a, b in self.phi}
        return self._map(word, inv_table, self.b_letters)

    def supported(self, word: str, letters: frozenset[str]) -> bool:
        return all(ch.lower() in letters for ch in word)

    def _pinch(self, left: int, mid: str, right: int) -> str | None:
        """The base word t^left mid t^right equals if it is a pinch, else None."""
        if left == 1 and right == -1 and self.supported(mid, self.a_letters):
            return self.phi_word(mid)
        if left == -1 and right == 1 and self.supported(mid, self.b_letters):
            return self.phi_inverse_word(mid)
        return None


class HNNWord(namedtuple("HNNWord", "extension base_words signs")):
    """Alternating normal form g_0 t^{s_0} g_1 ... t^{s_{n-1}} g_n."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, extension: HNNExtension, base_words: tuple[str, ...], signs: tuple[int, ...]):
        self = tuple.__new__(cls, (extension, base_words, signs))
        if len(self.base_words) != len(self.signs) + 1:
            raise ValueError("need one more base word than t-exponents")
        if any(s not in (1, -1) for s in self.signs):
            raise ValueError("t-exponents must be +-1")
        return self

    @classmethod
    def from_items(cls, extension: HNNExtension, items) -> "HNNWord":
        """Build from a mixed sequence of base words (str) and t-exponents
        (int, each +-1); consecutive base words are concatenated."""
        words = [""]
        signs: list[int] = []
        for item in items:
            if isinstance(item, str):
                words[-1] += item
            else:
                for _ in range(abs(int(item))):
                    signs.append(1 if item > 0 else -1)
                    words.append("")
        return cls(extension, tuple(free_reduce(w) for w in words), tuple(signs))

    def formal_inverse(self) -> "HNNWord":
        words = tuple(inverse_word(w) for w in reversed(self.base_words))
        signs = tuple(-s for s in reversed(self.signs))
        return HNNWord(self.extension, words, signs)

    def concat(self, other: "HNNWord") -> "HNNWord":
        if other.extension != self.extension:
            raise ValueError("cannot concatenate words over different extensions")
        words = self.base_words[:-1] + (
            free_reduce(self.base_words[-1] + other.base_words[0]),
        ) + other.base_words[1:]
        return HNNWord(self.extension, words, self.signs + other.signs)

    @property
    def t_length(self) -> int:
        return len(self.signs)

    def has_pinch(self) -> bool:
        s, w, pinch = self.signs, self.base_words, self.extension._pinch
        return any(pinch(s[i], w[i + 1], s[i + 1]) is not None for i in range(len(s) - 1))


def britton_reduce(hw: HNNWord) -> HNNWord:
    """Remove pinches t h t^{-1} (h in <A>) and t^{-1} h t (h in <B>) until
    none remain; a pinch-free word with t-letters is nontrivial by Britton's
    Lemma."""
    ext = hw.extension
    words = list(hw.base_words)
    signs = list(hw.signs)
    i = 0
    while i < len(signs) - 1:
        image = ext._pinch(signs[i], words[i + 1], signs[i + 1])
        if image is None:
            i += 1
            continue
        words[i : i + 3] = [free_reduce(words[i] + image + words[i + 2])]
        del signs[i : i + 2]
        i = max(i - 1, 0)  # the pinch changed only base word i: none is left before i - 1
    return HNNWord(ext, tuple(words), tuple(signs))


def is_trivial_hnn(hw: HNNWord) -> bool:
    reduced = britton_reduce(hw)
    return reduced.t_length == 0 and reduced.base_words[0] == ""
