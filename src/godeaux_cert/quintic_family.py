"""The invariant quintic family in P^3 and its order-5 symmetry.

Enumerates the 12 admissible degree-5 monomials and, for a member given by
its 12 coefficients over a prime field containing fifth roots of unity,
checks invariance, freeness of the action, smoothness, and transversality
to the coordinate planes.  Smoothness and transversality of a member that
is diagonal mod q (only pure powers survive) are decided in closed form;
any other member is scanned point by point.  The family-dimension count
11 - 3 = 8 is prime-free rational linear algebra.

The singular-point scans test only the partial derivatives: a member f is
homogeneous of degree 5, so Euler's identity sum_v z_v df/dz_v = 5 f makes
every common zero of the partials a zero of f whenever 5 is a unit mod q.
At q = 5 the identity says nothing, and the scans refuse that prime.
"""

from __future__ import annotations

import functools
import math
import operator
from typing import List, Sequence, Tuple

from .exact_arith import (
    _Record,
    _require_int,
    _require_prime,
    iter_projective_coords,
    primitive_fifth_root,
    rational_matrix_rank,
)

# The 12 exponent tuples (n1,n2,n3,n4) with sum 5 and 1*n1+2*n2+3*n3+4*n4
# divisible by 5, in the canonical order used for coefficient vectors.
_MONOMIAL_ORDER: Tuple[Tuple[int, int, int, int], ...] = (
    (5, 0, 0, 0),
    (3, 0, 1, 1),
    (2, 1, 2, 0),
    (2, 2, 0, 1),
    (1, 3, 1, 0),
    (1, 1, 0, 3),
    (1, 0, 2, 2),
    (0, 5, 0, 0),
    (0, 0, 5, 0),
    (0, 0, 0, 5),
    (0, 2, 1, 2),
    (0, 1, 3, 1),
)

# Coefficient positions (0-based) of the pure powers z1^5, z2^5, z3^5, z4^5.
PURE_POWER_INDICES = (0, 7, 8, 9)

# The 4 coordinate points of P^3: the fixed locus of the symmetry.
_COORDINATE_POINTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


def enumerate_monomials() -> Tuple[Tuple[int, int, int, int], ...]:
    """Exhaustively solve n1+n2+n3+n4 = 5, n1+2n2+3n3+4n4 = 0 (mod 5).

    Returns the tuples found, those of the canonical listing in its order
    (order matters for coefficient vectors), then any the listing lacks.
    """
    found = set()
    for n1 in range(6):
        for n2 in range(6 - n1):
            for n3 in range(6 - n1 - n2):
                n4 = 5 - n1 - n2 - n3
                if (n1 + 2 * n2 + 3 * n3 + 4 * n4) % 5 == 0:
                    found.add((n1, n2, n3, n4))
    listed = tuple(m for m in _MONOMIAL_ORDER if m in found)
    return listed + tuple(sorted(found.difference(listed)))


class GroupElement(_Record):
    """Diagonal symmetry z_j -> eps^{w_j} z_j with weights mod 5."""

    __slots__ = ("weights",)

    def __init__(self, weights: Tuple[int, int, int, int]) -> None:
        w = tuple(weights)
        for x in w:
            _require_int("weight", x)
        if len(w) != 4:
            raise ValueError("need 4 weights")
        (set_weights,) = self._setters
        set_weights(self, tuple(x % 5 for x in w))

    @classmethod
    def generator(cls) -> "GroupElement":
        return cls((1, 2, 3, 4))


def _reduce_coeffs(a: Sequence[int], q: int) -> List[int]:
    """The 12 coefficients reduced to [0, q), in one pass over a.

    Refuses, in this order, a length other than 12 (ValueError), a
    coefficient that is not an int (TypeError, naming the first; int()
    would truncate a Fraction or a float), and a vector that vanishes mod q
    (ValueError).  The pass reduces only the ints, so a short result means
    some coefficient is not one.
    """
    if len(a) != 12:
        raise ValueError(f"need 12 coefficients, got {len(a)}")
    coeffs = [x % q for x in a if type(x) is int]
    if len(coeffs) < 12:
        bad = next(x for x in a if type(x) is not int)
        raise TypeError(f"coefficient must be an int, got {bad!r}")
    if not any(coeffs):
        raise ValueError("all coefficients vanish mod the chosen prime")
    return coeffs


def invariance_check(a: Sequence[int], g: GroupElement, q: int) -> bool:
    """Is the member carried to a scalar multiple of itself by g?

    Each monomial picks up eps^{sum w_j n_j}; the polynomial is invariant
    up to scale iff that scalar is the same across all surviving terms.
    eps is primitive, so two scalars agree iff their exponents agree mod 5.
    """
    primitive_fifth_root(q)  # refuses a q with no order-5 symmetry
    weights = {sum(map(operator.mul, g.weights, exps)) % 5 for _, exps in _int_terms(a, q)}
    return len(weights) == 1


def free_action_check(a: Sequence[int], q: int) -> bool:
    """No fixed point of the symmetry lies on the member.

    Evaluates f at the four coordinate points, reading only the nonzero
    entries of the monomial-value table, and stops at the first point where
    f vanishes.  q = 5 is refused: 1 is the only fifth root of unity in
    characteristic 5, so the symmetry is the identity and fixes every point.
    """
    _require_prime(q)
    if q == 5:
        raise ValueError(
            "q = 5 has no primitive fifth root of unity: the symmetry fixes every point"
        )
    coeffs = _reduce_coeffs(a, q)
    for row in _monomial_values():
        s = 0
        for j, v in row:
            s += coeffs[j] * v
        if not s % q:
            return False
    return True


@functools.lru_cache(maxsize=1)
def _monomial_values() -> List[List[Tuple[int, int]]]:
    """Row i holds (position, value) of each monomial, in canonical order,
    whose value at coordinate point i is nonzero."""
    rows = []
    for pt in _COORDINATE_POINTS:
        values = (math.prod(map(pow, pt, exps)) for exps in _MONOMIAL_ORDER)
        rows.append([(j, v) for j, v in enumerate(values) if v])
    return rows


def _int_terms(a: Sequence[int], q: int) -> List[Tuple[int, Tuple[int, int, int, int]]]:
    return [(c, exps) for c, exps in zip(_reduce_coeffs(a, q), _MONOMIAL_ORDER) if c]


def _scan_terms(a: Sequence[int], q: int) -> List[Tuple[int, Tuple[int, int, int, int]]]:
    _require_prime(q)
    if q == 5:
        raise ValueError("q = 5 divides the degree: the partials do not decide smoothness")
    return _int_terms(a, q)


def _singular_point_exists(terms: List[Tuple[int, Tuple[int, ...]]], q: int) -> bool:
    """Is some projective point a common zero of all partials?

    By Euler's identity sum_v z_v df/dz_v = 5 f, such a point is a zero of f,
    hence singular, as long as q != 5 (the callers refuse q = 5).

    Closed form for a diagonal member, sum c_v z_v^5: each partial is
    5 c_v z_v^4 with 5 c_v != 0, so a common zero has z_v = 0 for every
    present variable.  Such a point exists, over F_q and over its algebraic
    closure alike, exactly when some variable is absent, and then that
    coordinate point is one.

    Any other member is scanned over the F_q-points.  One power table
    pw[x][e] = x^e mod q serves every point; each partial keeps only its
    nonzero exponents, and its sum is reduced mod q once.
    """
    nvars = len(terms[0][1])
    if all(5 in exps for _, exps in terms):
        return len(terms) < nvars
    partials = [
        [
            (c * exps[v], [(u, e - (u == v)) for u, e in enumerate(exps) if e - (u == v)])
            for c, exps in terms
            if exps[v]
        ]
        for v in range(nvars)
    ]
    pw = [[pow(x, e, q) for e in range(5)] for x in range(q)]
    for pt in iter_projective_coords(q, nvars - 1):
        for pv in partials:
            s = 0
            for c, factors in pv:
                for u, e in factors:
                    c *= pw[pt[u]][e]
                s += c
            if s % q:
                break
        else:
            return True
    return False


def smoothness_check(a: Sequence[int], q: int) -> bool:
    """No point of P^3(F_q) is a common zero of the member's partials."""
    return not _singular_point_exists(_scan_terms(a, q), q)


def transversality_check(a: Sequence[int], plane_index: int, q: int) -> bool:
    """The restriction to the coordinate plane z_{plane_index} = 0 is smooth.

    plane_index is 1-based.  Terms involving the dropped variable vanish;
    the survivors form a plane quintic checked over P^2(F_q).
    """
    _require_int("plane_index", plane_index)
    if not 1 <= plane_index <= 4:
        raise ValueError(f"plane_index {plane_index} out of range 1..4")
    drop = plane_index - 1
    restricted = [
        (c, exps[:drop] + exps[drop + 1 :])
        for c, exps in _scan_terms(a, q)
        if exps[drop] == 0
    ]
    return bool(restricted) and not _singular_point_exists(restricted, q)


def weight_difference_rank() -> int:
    """Rank over Q of the 11 x 4 matrix with rows n_i - n_1."""
    base = _MONOMIAL_ORDER[0]
    rows = [
        [n - b for n, b in zip(exps, base)] for exps in _MONOMIAL_ORDER[1:]
    ]
    return rational_matrix_rank(rows)


def family_dimension() -> int:
    """Moduli count: 11 coefficient parameters minus the effective torus.

    The diagonal torus acts on coefficients through the exponent
    differences n_i - n_1; its effective dimension is the rank of that
    difference matrix (3), leaving 11 - 3 = 8.
    """
    return 11 - weight_difference_rank()


def invariant_hyperplanes(g: GroupElement) -> Tuple[Tuple[int, ...], ...]:
    """The hyperplanes fixed by g's dual action, one family per weight of g.

    g scales the form c of sum(c_j z_j) = 0 to (eps^{w_j} c_j), so the plane
    is fixed exactly when the j with c_j != 0 share one weight.  The planes
    of one weight, carried by k coordinates, form a P^{k-1}: each family is
    given by the form that is 1 on its coordinates.  With pairwise distinct
    weights, as the generator's (1, 2, 3, 4), every family is a single
    coordinate plane; a repeated weight leaves fewer families, and
    infinitely many fixed planes.
    """
    return tuple(tuple(int(v == w) for v in g.weights) for w in dict.fromkeys(g.weights))
