"""Independent reference routes the tests compare the exact checks against.

- field_route_singular: FieldElement evaluation of a member and of its
  partials at every point, the oracle for the plain-int singular scans.
- fixed_points: a plain-int scan of P^3(F_q) for the fixed points of a
  symmetry, the oracle for the coordinate-point table.
- fraction_det: Fraction elimination, the oracle for Bareiss determinants.
"""

import functools
from fractions import Fraction

from godeaux_cert import quintic_family as qf
from godeaux_cert.exact_arith import (
    FieldElement,
    SparsePolynomial,
    iter_projective_coords,
    primitive_fifth_root,
)


def field_member(a, q, plane=None):
    """The member sum(a_i z^{n_i}) mod q, or with a 1-based plane index its
    restriction to that coordinate plane, as a SparsePolynomial."""
    terms = {exps: c % q for c, exps in zip(a, qf._MONOMIAL_ORDER)}
    if plane is None:
        return SparsePolynomial(terms, 4)
    drop = plane - 1
    return SparsePolynomial(
        {e[:drop] + e[drop + 1 :]: c for e, c in terms.items() if e[drop] == 0}, 3
    )


def _naive_partial(p, v):
    acc = {}
    for exps, c in p.terms.items():
        if exps[v]:
            key = exps[:v] + (exps[v] - 1,) + exps[v + 1 :]
            acc[key] = acc.get(key, 0) + c * exps[v]
    return SparsePolynomial(acc, p.num_vars)


def field_route_singular(a, q, plane=None):
    """Is some point a common zero of f and of every partial?

    With plane=None the member is scanned over P^3; with a 1-based plane
    index, its restriction to that coordinate plane is scanned over P^2.
    Each tuple of iter_projective_coords is the one normalized
    representative of its point, so its coordinates are wrapped as they are.
    """
    f = field_member(a, q, plane)
    partials = [_naive_partial(f, v) for v in range(f.num_vars)]
    for raw in iter_projective_coords(q, f.num_vars - 1):
        pt = tuple(FieldElement(v, q) for v in raw)
        if not f.eval(pt) and not any(d.eval(pt) for d in partials):
            return True
    return False


@functools.lru_cache(maxsize=None)
def fixed_points(g, q):
    """Every fixed point of g on P^3(F_q), found by scanning every point.

    g moves p to (eps^{w_j} p_j); p is fixed when that image, divided by
    its leading coordinate, is p again.
    """
    eps = primitive_fifth_root(q).value
    scale = [pow(eps, w, q) for w in g.weights]
    out = []
    for p in iter_projective_coords(q, 3):
        moved = [s * x % q for s, x in zip(scale, p)]
        inv = pow(next(x for x in moved if x), -1, q)
        if tuple(x * inv % q for x in moved) == p:
            out.append(p)
    return tuple(out)


def fraction_det(m):
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    det = Fraction(1)
    for col in range(n):
        piv = next((r for r in range(col, n) if a[r][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            a[col], a[piv] = a[piv], a[col]
            det = -det
        det *= a[col][col]
        inv = 1 / a[col][col]
        a[col] = [x * inv for x in a[col]]
        for r in range(col + 1, n):
            f = a[r][col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return det
