"""Exact integer linear algebra: Smith normal form and finitely generated
abelian groups as invariant-factor lists.

Matrices are plain lists of lists of Python ints (arbitrary precision).
"""

from __future__ import annotations

import math
from collections import namedtuple

IntMatrix = list  # list[list[int]]


def identity_matrix(n: int) -> IntMatrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if not a or not b:
        return [[] for _ in a]
    cols = len(b[0])
    return [[sum(row[k] * b[k][j] for k in range(len(b))) for j in range(cols)] for row in a]


def _clearing_step(a: int, b: int) -> tuple[int, int, int, int]:
    """Unimodular [[x, y], [p, q]] taking (a, b) to (g, 0) for a != 0: one
    subtraction when a divides b, otherwise the Bezout step with
    x*a + y*b = g = gcd(a, b) and (p, q) = (-b/g, a/g)."""
    if b % a == 0:
        return 1, 0, -(b // a), 1
    g = math.gcd(a, b)
    x = pow(a // g, -1, abs(b) // g)
    return x, (g - x * a) // b, -b // g, a // g


def smith_normal_form(m: IntMatrix, transforms: bool = True) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (D, U, V) with U*m*V = D, U and V unimodular, D diagonal with
    non-negative entries satisfying the divisibility chain d1 | d2 | ...

    The pivot is an entry of least absolute value.  Each entry of its column
    and row is then cleared by one unimodular step (`_clearing_step`) on two
    rows of A and U or two columns of A and V, which leaves the gcd of the
    pivot and the entry as the pivot.

    With transforms=False, U and V are neither built nor updated and the
    result is (D, [], []), with the same D by the same steps.
    """
    rows = len(m)
    cols = len(m[0]) if rows else 0
    A = [list(map(int, row)) for row in m]
    U = identity_matrix(rows) if transforms else []
    V = identity_matrix(cols) if transforms else []
    row_mats = (A, U) if transforms else (A,)

    def add_row(i, k, f):
        # row_i += f * row_k
        for M in row_mats:
            M[i] = [x + f * y for x, y in zip(M[i], M[k])]

    for t in range(min(rows, cols)):
        # the pivot: the first entry of least absolute value, in row-major order
        nonzero = [(abs(A[i][j]), i, j) for i in range(t, rows) for j in range(t, cols) if A[i][j]]
        if not nonzero:
            break
        _, i, j = min(nonzero)
        for M in row_mats:
            M[t], M[i] = M[i], M[t]
        if j != t:
            for row in A + V:
                row[t], row[j] = row[j], row[t]
        while True:
            # one step on rows t and i of A and U zeroes A[i][t]
            for i in range(t + 1, rows):
                if A[i][t]:
                    x, y, p, q = _clearing_step(A[t][t], A[i][t])
                    for M in row_mats:
                        rt, ri = M[t], M[i]
                        if y:  # a Bezout step; a subtraction leaves row t as it is
                            M[t] = [x * u + y * w for u, w in zip(rt, ri)]
                        M[i] = [p * u + q * w for u, w in zip(rt, ri)]
            # one step on columns t and j of A and V zeroes A[t][j]
            for j in range(t + 1, cols):
                if A[t][j]:
                    x, y, p, q = _clearing_step(A[t][t], A[t][j])
                    if not y:  # a subtraction leaves column t as it is
                        for row in A + V:
                            row[j] += p * row[t]
                        continue
                    for row in A + V:
                        u, w = row[t], row[j]
                        row[t], row[j] = x * u + y * w, p * u + q * w
            # a Bezout step on columns can repopulate column t; loop
            if any(row[t] for row in A[t + 1 :]):
                continue
            # divisibility of the remaining block by the pivot
            remainder = A[t][t].__rmod__  # x -> x % pivot
            bad = next((i for i in range(t + 1, rows) if any(map(remainder, A[i][t + 1 :]))), None)
            if bad is None:
                break
            add_row(t, bad, 1)
        if A[t][t] < 0:
            add_row(t, t, -2)  # negate row t
    return A, U, V


def diagonal(d: IntMatrix) -> list[int]:
    return [d[i][i] for i in range(min(len(d), len(d[0]) if d else 0))]


# ----------------------------------------------------------------------
# finitely generated abelian groups


class AbelianGroup(namedtuple("AbelianGroup", "rank torsion")):
    """Z^rank + Z/t1 + ... with the invariant-factor chain t1 | t2 | ..."""

    __slots__ = ()
    _make = classmethod(lambda cls, fields: cls(*fields))  # so _replace checks too

    def __new__(cls, rank: int, torsion: tuple[int, ...] = ()):
        self = tuple.__new__(cls, (rank, torsion))
        if self.rank < 0:
            raise ValueError("rank must be non-negative")
        if any(tq < 2 for tq in self.torsion):  # before the chain check divides by one
            raise ValueError("invariant factors must be >= 2")
        for a, b in zip(self.torsion, self.torsion[1:]):
            if b % a != 0:
                raise ValueError(f"invariant factors must form a chain: {self.torsion}")
        return self

    @classmethod
    def from_relation_matrix(cls, relations: IntMatrix, num_generators: int) -> "AbelianGroup":
        """Cokernel Z^n / (row space) from a relation matrix (rows = relators)."""
        if not relations:
            return cls(num_generators)
        if any(len(row) != num_generators for row in relations):
            raise ValueError("relation rows must have num_generators entries")
        # an all-zero row presents nothing (a bundle's [x, t] commutators)
        d, _, _ = smith_normal_form([row for row in relations if any(row)], transforms=False)
        diag = diagonal(d)
        nonzero = [x for x in diag if x != 0]
        return cls(rank=num_generators - len(nonzero), torsion=tuple(x for x in nonzero if x >= 2))

    def presentation_matrix(self) -> tuple[IntMatrix, int]:
        """Relation matrix (rows, num_generators) presenting this group:
        free coordinates first, then one torsion coordinate per factor."""
        n = self.rank + len(self.torsion)
        rows = []
        for i, tq in enumerate(self.torsion):
            row = [0] * n
            row[self.rank + i] = tq
            rows.append(row)
        return rows, n

    def to_json(self) -> dict:
        return {"rank": self.rank, "torsion": list(self.torsion)}

    def __str__(self) -> str:
        parts = []
        if self.rank == 1:
            parts.append("Z")
        elif self.rank > 1:
            parts.append(f"Z^{self.rank}")
        parts += [f"Z/{tq}" for tq in self.torsion]
        return " + ".join(parts) if parts else "0"


def filling_quotient(relations: IntMatrix, num_generators: int, sigma: list[int]) -> AbelianGroup:
    """Quotient of the presented group by the cyclic subgroup <sigma>:
    append sigma as one more relator row and rerun Smith normal form."""
    if len(sigma) != num_generators:
        raise ValueError(f"sigma has {len(sigma)} coordinates, expected {num_generators}")
    rows = [list(row) for row in relations] + [list(sigma)]
    return AbelianGroup.from_relation_matrix(rows, num_generators)


class BundleFit(namedtuple("BundleFit", "genus euler_numbers")):
    """Solution of the circle-bundle homology formulas for (genus, e)."""

    __slots__ = ()


def genus_from_filling_h1(h: AbelianGroup, boundary_count: int) -> BundleFit | None:
    """Invert H1 of a circle bundle: closed case Z^2g + Z/|e| (Z^{2g+1} when
    e = 0), bounded case Z^{2g+k-1} + Z.  Returns None when no (g, e) fits."""
    if boundary_count > 0:
        if h.torsion:
            return None
        free = h.rank - boundary_count  # rank = 2g + k
        if free < 0 or free % 2 != 0:
            return None
        return BundleFit(genus=free // 2, euler_numbers=(0,))
    if len(h.torsion) > 1:
        return None
    if len(h.torsion) == 1:
        if h.rank % 2 != 0:
            return None
        tq = h.torsion[0]
        return BundleFit(genus=h.rank // 2, euler_numbers=(tq, -tq))
    # torsion free: either e = +-1 (rank 2g) or e = 0 (rank 2g + 1)
    if h.rank % 2 == 0:
        return BundleFit(genus=h.rank // 2, euler_numbers=(1, -1))
    return BundleFit(genus=(h.rank - 1) // 2, euler_numbers=(0,))
