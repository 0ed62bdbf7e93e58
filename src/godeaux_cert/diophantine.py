"""Bounded integer enumeration for the three small equation systems.

Every search space here is a box of at most 6^4 = 1296 candidates, so one
exhaustive comprehension per system is both the implementation and the
obvious reference oracle.
"""

from __future__ import annotations

import itertools
from typing import FrozenSet, Tuple

from .picard_lattice import TORSION_ORDER, PicardClass, e8_roots


def solve_monomial_system() -> FrozenSet[Tuple[int, int, int, int]]:
    """Non-negative 4-tuples with sum 5 and weighted sum 0 mod 5."""
    return frozenset(
        p
        for p in itertools.product(range(6), repeat=4)
        if sum(p) == 5 and (p[0] + 2 * p[1] + 3 * p[2] + 4 * p[3]) % 5 == 0
    )


def solve_smooth_quadric_case() -> FrozenSet[Tuple[int, int]]:
    """5(m+n) - 2mn = 15 over 0 <= m, n <= 5."""
    return frozenset(
        (m, n)
        for m, n in itertools.product(range(6), repeat=2)
        if 5 * (m + n) - 2 * m * n == 15
    )


def solve_cone_case() -> FrozenSet[Tuple[int, int]]:
    """m(m - 2n) + 5n = 15 over 0 <= m <= 5, 0 <= n <= 10."""
    return frozenset(
        (m, n)
        for m, n in itertools.product(range(6), range(11))
        if m * (m - 2 * n) + 5 * n == 15
    )


def intersection_identity() -> int:
    """Pull back the intersection of two neighbouring divisors to the cover.

    Downstairs M1 = K + E and M2 = K - E + torsion have pairing
    K^2 - E^2 = 1 + 2 = 3; the degree-5 unramified cover multiplies
    intersection numbers by 5, giving 15.  Computed from the lattice,
    not hardcoded: the first root serves as E, and -E is looked up among
    the roots by its coordinates.
    """
    roots = e8_roots()
    e = roots[0]
    neg = tuple(-x for x in e.c)
    m1 = PicardClass(1, e, 0)
    m2 = PicardClass(1, next(r for r in roots if r.c == neg), 1)
    return TORSION_ORDER * m1.pair(m2)


def self_intersection_downstairs() -> int:
    """(K + E)^2 = K^2 + E^2 = 1 - 2 = -1."""
    e = e8_roots()[0]
    m1 = PicardClass(1, e, 0)
    return m1.pair(m1)
