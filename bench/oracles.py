"""Independent oracles for the benchmark's correctness checks.

Standard library only.  Nothing here calls curvelift: every function works
on plain data (integer matrices, compact words, event tuples in the diagram
encoding of ``curvelift.diagrams``) and recomputes from first principles
what the benchmark compares curvelift's outputs against.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

# ----------------------------------------------------------------------
# exact linear algebra


def det_fraction(m) -> Fraction:
    """Determinant of a square integer matrix by Gaussian elimination over
    the rationals."""
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
        for r in range(col + 1, n):
            f = a[r][col] / a[col][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det


def mat_mul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def exponent_vector(word: str, generators) -> list[int]:
    """Abelianization of a compact word (uppercase = inverse letter)."""
    index = {g: i for i, g in enumerate(generators)}
    vec = [0] * len(generators)
    for ch in word:
        vec[index[ch.lower()]] += -1 if ch.isupper() else 1
    return vec


# ----------------------------------------------------------------------
# circle-bundle homology in closed form


def bundle_euler_number(genus: int, kind: str) -> int:
    """e(UT) = chi, e(PT) = 2 chi for the closed surface of genus g."""
    chi = 2 - 2 * genus
    return {"UT": chi, "PT": 2 * chi}[kind]


def bundle_h1_closed_form(genus: int, euler: int, sigma=None) -> tuple[int, tuple[int, ...]]:
    """(rank, torsion) of H1 of the circle bundle of Euler number e over the
    closed surface of genus g, optionally quotiented by the class sigma.

    H1 = Z^2g + Z/|e| (Z^(2g+1) when e = 0).  In the basis a1, b1, ..., t the
    only nonzero relator row is (0, ..., 0, -e); with sigma appended the
    relation matrix has two nonzero rows, whose invariant factors follow
    from the determinantal divisors D1 = gcd(e, sigma) and
    D2 = |e| * gcd(sigma_1, ..., sigma_2g).
    """
    n = 2 * genus + 1
    if sigma is None:
        if euler == 0:
            return n, ()
        return n - 1, (abs(euler),) if abs(euler) > 1 else ()
    if len(sigma) != n:
        raise ValueError("sigma needs 2g + 1 coordinates")
    base = math.gcd(*sigma[:-1])
    d1 = math.gcd(euler, *sigma)
    if euler == 0:
        factors = [d1] if any(sigma) else []
    elif base == 0:
        factors = [math.gcd(euler, sigma[-1])]
    else:
        factors = [d1, abs(euler) * base // d1]
    return n - len(factors), tuple(f for f in factors if f > 1)


def is_divisibility_chain(factors) -> bool:
    return all(b % a == 0 for a, b in zip(factors, factors[1:]) if a)


# ----------------------------------------------------------------------
# free groups


def free_reduce(word: str) -> str:
    out: list[str] = []
    for ch in word:
        if out and out[-1] == ch.swapcase():
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def inverse_word(word: str) -> str:
    return word[::-1].swapcase()


def cyclic_reduce(word: str) -> str:
    w = free_reduce(word)
    i, j = 0, len(w)
    while j - i >= 2 and w[i] == w[j - 1].swapcase():
        i, j = i + 1, j - 1
    return w[i:j]


def min_rotation(seq):
    """Least rotation of a sequence (brute force; inputs here are short)."""
    if not seq:
        return seq
    return min(seq[i:] + seq[:i] for i in range(len(seq)))


# ----------------------------------------------------------------------
# diagrams, as tuples of event tuples per component


def _genus_offset(genus: int) -> Fraction:
    """Turning of one polygon-side crossing on the closed surface of genus g
    (docs/turning_model.md): chi / 4g."""
    return Fraction(2 - 2 * genus, 4 * genus) if genus >= 1 else Fraction(0)


_TURNING = {"qturn": Fraction(1, 4), "kink": Fraction(1), "cusp": Fraction(1, 2)}


def turning_sum(component, genus: int) -> Fraction:
    """Turning number of one component, summed from the event table in
    docs/turning_model.md."""
    total = Fraction(0)
    for ev in component:
        if ev[0] == "edge":
            total += _genus_offset(genus)
        elif ev[0] in _TURNING:
            total += _TURNING[ev[0]] * ev[1]
    return total


def turning_sums(components, genus: int) -> list[Fraction]:
    return sorted(turning_sum(c, genus) for c in components)


def crossing_slots_paired(components) -> bool:
    """Every crossing id occurs exactly once in slot 1 and once in slot 2."""
    slots = Counter((ev[1], ev[2]) for comp in components for ev in comp if ev[0] == "cross")
    ids = {cid for cid, _ in slots}
    return all(slots[(cid, 1)] == 1 and slots[(cid, 2)] == 1 for cid in ids) and set(
        slot for _, slot in slots
    ) <= {1, 2}


def edge_sequences(components) -> list[tuple[str, ...]]:
    """Multiset (sorted list) of the cyclic edge-letter sequences, one per
    component, each taken up to rotation."""
    return sorted(
        min_rotation(tuple(ev[1] for ev in comp if ev[0] == "edge")) for comp in components
    )


def shadow_words(components, chars_of) -> list[str]:
    """Per component, the edge letters as a compact word, cyclically freely
    reduced.  ``chars_of`` maps a token such as "a1'" to its letter."""
    return [cyclic_reduce("".join(chars_of(ev[1]) for ev in comp if ev[0] == "edge")) for comp in components]


def _relabeled(streams):
    table: dict[str, int] = {}
    out = []
    for stream in streams:
        toks = []
        for ev in stream:
            if ev[0] == "cross":
                toks.append(("cross", table.setdefault(ev[1], len(table)), ev[2]))
            else:
                toks.append(ev)
        out.append(tuple(toks))
    return tuple(out)


def brute_canonical_form(components):
    """Least id-relabelled event stream over every component order and every
    rotation of every component.  Exhaustive, so only for small diagrams."""
    best = None
    comps = [tuple(c) for c in components]
    for perm in itertools.permutations(comps):
        for rots in itertools.product(*(range(max(len(c), 1)) for c in perm)):
            key = _relabeled([c[r:] + c[:r] for c, r in zip(perm, rots)])
            if best is None or key < best:
                best = key
    return best


def diagrams_equal(components1, components2) -> bool:
    """Equality up to rotation, component order and crossing names."""
    if sorted(map(len, components1)) != sorted(map(len, components2)):
        return False
    return brute_canonical_form(components1) == brute_canonical_form(components2)
