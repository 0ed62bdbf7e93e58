"""Numerical cohomology arithmetic on surfaces.

Riemann-Roch and adjunction at the Euler-characteristic level, the
Noether identity, invariants of free quotients, and the Hilbert-polynomial
conditions that single out rank-one spectral sheaves.  The Hilbert and
growth checks are taken on the Godeaux surface, which is smooth, so the
Cartier multiplier is d = 1.  Everything is exact integer arithmetic; no
individual h^i is ever computed.
"""

from __future__ import annotations

import functools

from .exact_arith import _Record, _require_int


class SurfaceInvariants(_Record):
    """chi(O), K^2, topological Euler characteristic, q, p_g, b_2."""

    __slots__ = ("chi", "K2", "e", "q", "pg")

    def __init__(self, chi: int, K2: int, e: int, q: int = 0, pg: int = 0) -> None:
        object.__setattr__(self, "chi", chi)
        object.__setattr__(self, "K2", K2)
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "pg", pg)
        self.__post_init__()

    def __post_init__(self) -> None:
        for name in ("chi", "K2", "e", "q", "pg"):
            _require_int(name, getattr(self, name))
        if 12 * self.chi != self.K2 + self.e:
            raise ValueError(
                f"Noether identity fails: 12*{self.chi} != {self.K2} + {self.e}"
            )
        if self.chi != 1 - self.q + self.pg:
            raise ValueError(f"chi = {self.chi} != 1 - q + pg = {1 - self.q + self.pg}")

    @property
    def b2(self) -> int:
        """Second Betti number e - 2 + 4q, from e = 2 - 2 b_1 + b_2 and b_1 = 2q."""
        return self.e - 2 + 4 * self.q


# Invariants of the quotient surfaces under study and of their quintic cover.
GODEAUX = SurfaceInvariants(chi=1, K2=1, e=11, q=0, pg=0)
QUINTIC = SurfaceInvariants(chi=5, K2=5, e=55, q=0, pg=4)


class NumericalDivisor(_Record):
    """Numerical class of a divisor: self-intersection and product with K."""

    __slots__ = ("self_int", "dot_K")

    def __init__(self, self_int: int, dot_K: int) -> None:
        object.__setattr__(self, "self_int", self_int)
        object.__setattr__(self, "dot_K", dot_K)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_int("self_int", self.self_int)
        _require_int("dot_K", self.dot_K)
        if (self.dot_K - self.self_int) % 2 != 0:
            raise ValueError(
                f"parity violation: D.K = {self.dot_K} and D^2 = {self.self_int} "
                "must agree mod 2"
            )


def chi_divisor(s: SurfaceInvariants, D: NumericalDivisor) -> int:
    """chi(O(D)) = chi(O) + (D^2 - D.K)/2."""
    return s.chi + (D.self_int - D.dot_K) // 2


def adjunction_genus(D: NumericalDivisor) -> int:
    """Arithmetic genus 1 + (D^2 + D.K)/2 of a curve with these numerics."""
    return 1 + (D.self_int + D.dot_K) // 2


def noether_euler(chi: int, K2: int) -> int:
    """Topological Euler characteristic 12*chi - K^2."""
    return 12 * chi - K2


def quotient_invariants(cover: SurfaceInvariants, deg: int) -> SurfaceInvariants:
    """Invariants of the quotient by a free action of a group of order deg.

    chi, K^2 and e all divide by deg for a free action; non-divisibility is
    rejected as evidence the action was not free.  The quotient is taken
    with q = p_g = 0, as for the Godeaux quotient of the quintic.
    """
    _require_int("deg", deg)
    if deg < 1:
        raise ValueError("deg must be positive")
    for name, val in (("chi", cover.chi), ("K2", cover.K2), ("e", cover.e)):
        if val % deg != 0:
            raise ValueError(f"{name} = {val} not divisible by deg = {deg}")
    return SurfaceInvariants(cover.chi // deg, cover.K2 // deg, cover.e // deg)


def prespectral_hilbert_check(
    D: NumericalDivisor, C: NumericalDivisor, d_dot_c: int, n_max: int
) -> bool:
    """Hilbert condition chi(O(D + (n+1)C)) = (n+1)(n+2)/2 for n = 0..n_max.

    The sheaf is modeled numerically as O(D + C) twisted by multiples of C
    on the Godeaux surface; it is smooth, so the Cartier multiplier is d = 1.
    The verdict depends only on six integers, so it is worked out once per
    distinct input.  For n_max >= 2 it holds for n = 0..n_max exactly when it
    holds for every n >= 0.  n_max < 0 would check nothing, so it is refused.
    """
    if n_max < 0:
        raise ValueError(f"n_max must be at least 0, got {n_max}")
    return _hilbert_verdict(D.self_int, D.dot_K, C.self_int, C.dot_K, d_dot_c, n_max)


@functools.lru_cache(maxsize=1024)
def _hilbert_verdict(d_sq: int, d_k: int, c_sq: int, c_k: int, d_dot_c: int, n_max: int) -> bool:
    # With m = n + 1, 2 (chi(O(D + mC)) - m(m+1)/2) = a + b m + c m^2 exactly
    # (D^2 = D.K and m^2 C^2 = m C.K mod 2).  A quadratic with three zeros is
    # zero, so m = 1..3 decides every n.
    a = d_sq - d_k + 2 * GODEAUX.chi
    b = 2 * d_dot_c - c_k - 1
    c = c_sq - 1
    return all(a + b * m + c * m * m == 0 for m in range(1, min(n_max, 2) + 2))


def growth_check(C: NumericalDivisor, m_max: int) -> bool:
    """The section-space dimensions on the Godeaux surface grow like m^2/2.

    chi(O(mC)) for m = 1..m_max is quadratic with leading coefficient 1/2
    exactly when every second difference is 1.
    """
    _require_int("m_max", m_max)
    if m_max < 3:
        raise ValueError("need m_max >= 3 to pin a quadratic")
    chi = [
        chi_divisor(GODEAUX, NumericalDivisor(m * m * C.self_int, m * C.dot_K))
        for m in range(1, m_max + 1)
    ]
    return all(a - 2 * b + c == 1 for a, b, c in zip(chi, chi[1:], chi[2:]))


def chi_curve_sheaf(degree: int, genus: int) -> int:
    """chi of a degree-d line bundle on a genus-g curve: d - g + 1."""
    _require_int("degree", degree)
    _require_int("genus", genus)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    return degree - genus + 1
