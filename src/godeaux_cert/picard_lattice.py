"""Exact model of the Picard group Z*K + (-E8) + Z/5 of the quotient surface.

The rank-8 part is stored in doubled coordinates so every pairing is
integer arithmetic; the intersection form is k*k' - (c.c')/4, and the
membership conditions make the division exact.  Reproduces the 1200 / 120 /
1080 / 840 divisor counting.

The model is a read-only table: the checks pair classes and never add,
subtract or negate them, so every vector is built by its validating constructor.
"""

from __future__ import annotations

import functools
import itertools
import operator
from typing import List, Sequence, Tuple

from . import rr_engine
from .exact_arith import _leading_minors_positive, _Record, _require_int, integer_determinant
from .report import CheckEntry, check

TORSION_ORDER = 5


class E8Vector(_Record):
    """Vector of the rank-8 lattice in doubled integer coordinates.

    True coordinates are c/2; membership requires uniform parity across
    coordinates and coordinate sum divisible by 4.
    """

    __slots__ = ("c",)

    def __init__(self, c: Tuple[int, ...]) -> None:
        c = tuple(c)
        if len(c) != 8:
            raise ValueError("need 8 coordinates")
        for x in c:
            _require_int("coordinate", x)
        parities = {x % 2 for x in c}
        if len(parities) != 1:
            raise ValueError(f"mixed coordinate parity in {c}")
        if sum(c) % 4 != 0:
            raise ValueError(f"coordinate sum of {c} not divisible by 4")
        object.__setattr__(self, "c", c)

    def dot(self, other: "E8Vector") -> int:
        """Intersection pairing; negative definite on nonzero vectors.

        Exact: c.c' = 0 mod 4, as sum(c) = sum(c') = 0 mod 4.  For c = 2a and odd
        c', c.c' = 2 a.c' = 2 sum(a) mod 4; for odd c and c' = c + 2d, c.c' =
        8 + 2 sum(d) mod 4, and 2 sum(d) = sum(c') - sum(c); even c, c' are plain.
        """
        return -(sum(map(operator.mul, self.c, other.c)) // 4)

    @property
    def norm(self) -> int:
        return self.dot(self)


E8_ZERO = E8Vector((0,) * 8)


def e8_roots() -> Tuple[E8Vector, ...]:
    """The 240 vectors of self-intersection -2, in lexicographic order, built once.

    112 with doubled coordinates a signed pair of 2s, 128 with all
    coordinates +-1 and an even number of -1.
    """
    return _e8_roots()


@functools.lru_cache(maxsize=1)
def _e8_roots() -> Tuple[E8Vector, ...]:
    out = set()
    for i, j in itertools.combinations(range(8), 2):
        for si in (-2, 2):
            for sj in (-2, 2):
                v = [0] * 8
                v[i], v[j] = si, sj
                out.add(tuple(v))
    for signs in itertools.product((1, -1), repeat=8):
        if signs.count(-1) % 2 == 0:
            out.add(signs)
    return tuple(E8Vector(v) for v in sorted(out))


# A simple-root basis in doubled coordinates: one half-integer root and
# seven coordinate-pair roots; spans the lattice with Gram determinant 1.
SIMPLE_ROOTS = tuple(
    E8Vector(v)
    for v in (
        (1, -1, -1, -1, -1, -1, -1, 1),
        (2, 2, 0, 0, 0, 0, 0, 0),
        (-2, 2, 0, 0, 0, 0, 0, 0),
        (0, -2, 2, 0, 0, 0, 0, 0),
        (0, 0, -2, 2, 0, 0, 0, 0),
        (0, 0, 0, -2, 2, 0, 0, 0),
        (0, 0, 0, 0, -2, 2, 0, 0),
        (0, 0, 0, 0, 0, -2, 2, 0),
    )
)


def gram_matrix(basis: Sequence[E8Vector]) -> List[List[int]]:
    return [[u.dot(v) for v in basis] for u in basis]


class PicardClass(_Record):
    """Class k*K + e + t with torsion tag t in Z/5.

    The pairing ignores torsion: <(k,e,t),(k',e',t')> = k*k' + e.e'.
    """

    __slots__ = ("k", "e", "t", "__dict__")  # __dict__ holds the cached numerics

    def __init__(self, k: int, e: E8Vector, t: int) -> None:
        _require_int("k", k)
        _require_int("t", t)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "t", t % TORSION_ORDER)

    def pair(self, other: "PicardClass") -> int:
        return self.k * other.k + self.e.dot(other.e)

    @functools.cached_property
    def numerics(self) -> rr_engine.NumericalDivisor:
        """(D^2, D.K), worked out on first use and kept on the instance."""
        # D.K = k exactly: K.K = 1 and K pairs to 0 with the K-orthogonal E8 part
        k = self.k
        return rr_engine.NumericalDivisor(k * k + self.e.dot(self.e), k)


CANONICAL = PicardClass(1, E8_ZERO, 0)


def canonical_curves() -> Tuple[PicardClass, ...]:
    """The four ample curves, numerically K with nonzero torsion tags, built once."""
    return _canonical_curves()


@functools.lru_cache(maxsize=1)
def _canonical_curves() -> Tuple[PicardClass, ...]:
    return tuple(PicardClass(1, E8_ZERO, t) for t in range(1, 5))


def divisor_candidates() -> List[PicardClass]:
    """All 240 x 5 = 1200 classes E with E^2 = -2 and E.K = 0."""
    return [PicardClass(0, e, t) for e in e8_roots() for t in range(TORSION_ORDER)]


def divisors() -> Tuple[PicardClass, ...]:
    """The 1200 classes D = K + E, built once.

    The five torsion tags of a root are adjacent.  suite_rr shares one pairing
    and one chi value per run of adjacent classes with one (k, E), so it shares
    fully because of this order; it stays correct in any order.
    """
    return _divisors()


@functools.lru_cache(maxsize=1)
def _divisors() -> Tuple[PicardClass, ...]:
    return tuple(PicardClass(1, e, t) for e in e8_roots() for t in range(TORSION_ORDER))


class DivisorClassOrbit(_Record):
    """One block {K + E + a, K - E + a : a in Z/5} of ten classes, in divisor order."""

    __slots__ = ("members",)

    def __init__(self, members: Tuple[PicardClass, ...]) -> None:
        object.__setattr__(self, "members", members)


def partition_orbits() -> Tuple[DivisorClassOrbit, ...]:
    """Partition the 1200 divisors into 120 orbits of size 10, built once."""
    return _partition_orbits()


@functools.lru_cache(maxsize=1)
def _partition_orbits() -> Tuple[DivisorClassOrbit, ...]:
    # The roots are sorted and closed under negation, and negation reverses
    # lexicographic order, so root r - 1 - i is -(root i): orbit i, i < r / 2,
    # holds the five classes of root i, then the five of root r - 1 - i.
    ds, n, r = divisors(), TORSION_ORDER, len(e8_roots())
    return tuple(
        DivisorClassOrbit(ds[n * i : n * (i + 1)] + ds[n * (r - 1 - i) : n * (r - i)])
        for i in range(r // 2)
    )


# Per-orbit exclusion model: each orbit of 10 loses at most 1 class with a
# section (pairwise-intersection contradiction) and at most 2 classes, one
# per sign of E, whose twist by the ample curve acquires a second section.
BAD_PER_ORBIT = 1
DEGENERATE_PER_ORBIT = 2


def theorem_counts() -> dict:
    orbits = partition_orbits()
    n = sum(len(o.members) for o in orbits)
    return {
        "candidates": n,
        "good_lower_bound": n - BAD_PER_ORBIT * len(orbits),
        "excellent_lower_bound": n - (BAD_PER_ORBIT + DEGENERATE_PER_ORBIT) * len(orbits),
    }


def lattice_checks() -> List[CheckEntry]:
    roots = e8_roots()
    coords = {r.c for r in roots}
    entries = [
        check("lattice.root_count", "rank-8 even lattice root count", 240, len(roots), "stated"),
        check(
            "lattice.root_norms",
            "every root has self-intersection -2",
            True,
            all(r.norm == -2 for r in roots),
            "derived",
        ),
        check(
            "lattice.negation_closure",
            "roots closed under negation",
            True,
            all(tuple(map(operator.neg, r.c)) in coords for r in roots),
            "trivial",
        ),
    ]
    gram = gram_matrix(SIMPLE_ROOTS)
    det = integer_determinant(gram)
    entries.append(
        check("lattice.gram_det", "unimodularity of a simple-root basis", 1, abs(det), "derived")
    )
    entries.append(
        check(
            "lattice.even_diagonal",
            "even lattice: diagonal Gram entries even",
            True,
            all(gram[i][i] % 2 == 0 for i in range(8)),
            "derived",
        )
    )
    entries.append(
        check(
            "lattice.negative_definite",
            "leading principal minors of negated Gram all positive",
            True,
            _leading_minors_positive([list(map(operator.neg, row)) for row in gram]),
            "derived",
        )
    )
    entries.append(check("lattice.rank", "rank of the K-orthogonal part", 8, len(gram), "stated"))
    entries.append(
        check(
            "lattice.picard_rank",
            "total Picard rank 1 + 8",
            9,
            1 + len(gram),
            "stated",
        )
    )
    return entries


def verify_divisor_conditions(D: PicardClass, C: PicardClass) -> List[CheckEntry]:
    """Numeric conditions tying one divisor D = K + E to one ample curve C."""
    if C.e != E8_ZERO or C.k != 1:
        raise ValueError("C must be numerically the canonical class")
    # E = D - K is a root exactly when its K-part D.k - 1 is 0 and E^2 = D.e^2 = -2
    if D.k != 1 or D.e.norm != -2:
        raise ValueError("D - K must be a root (self-intersection -2, K-part 0)")
    genus = rr_engine.adjunction_genus(C.numerics)
    return [
        check("divisor.curve_self_int", "C^2 = 1", 1, C.pair(C), "stated"),
        check("divisor.curve_dot_K", "C.K = 1", 1, C.pair(CANONICAL), "stated"),
        check("divisor.curve_genus", "g(C) = 2", 2, genus, "stated"),
        check("divisor.pairing", "D.C = g(C) - 1", genus - 1, D.pair(C), "stated"),
        check(
            "divisor.euler_char",
            "chi(O(D)) = 0",
            0,
            rr_engine.chi_divisor(rr_engine.GODEAUX, D.numerics),
            "stated",
        ),
    ]
