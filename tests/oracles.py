"""Independent reference routes the tests compare the exact checks against.

- field_route_singular: evaluation of a member and of its naive partials
  at every point, in ints reduced mod q, the oracle for the partials-only
  singular scans with their power tables and diagonal closed form.
- epsilon_power_invariance: powers of a fifth root of unity mod q, the
  oracle for the weight route of invariance_check.
- fixed_points: a plain-int scan of P^3(F_q) for the fixed points of a
  symmetry, the oracle for the coordinate-point table.
- fraction_elimination: rank and determinant by Fraction elimination, the
  oracle for the Bareiss routes.
- trial_division_prime: the oracle for the Miller-Rabin is_prime.
- scanned_fifth_root: the smallest g != 1 with g^5 = 1, found by trying
  g = 2, 3, ... in turn, the oracle for primitive_fifth_root.
- operator_basis_pair_counts: the four basis-pair counts read through the
  operators symbol and truncate, the oracle for the inline reads of
  pdo_algebra._basis_pair_counts.
"""

import functools
from fractions import Fraction

from godeaux_cert import pdo_algebra as pa
from godeaux_cert import quintic_family as qf
from godeaux_cert.exact_arith import SparsePolynomial, iter_projective_coords, primitive_fifth_root


def field_member(a, q, plane=None):
    """The member sum(a_i z^{n_i}) with coefficients reduced mod q, or with a
    1-based plane index its restriction to that coordinate plane, as a
    SparsePolynomial; its values are read mod q."""
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
    representative of its point, and each value is reduced mod q.
    """
    f = field_member(a, q, plane)
    partials = [_naive_partial(f, v) for v in range(f.num_vars)]
    for pt in iter_projective_coords(q, f.num_vars - 1):
        if not f.eval(pt) % q and not any(d.eval(pt) % q for d in partials):
            return True
    return False


def epsilon_power_invariance(a, g, q):
    """Is the member carried to a multiple of itself by g?

    Each term with a_i != 0 mod q picks up the scalar eps^{sum w_j n_j} in
    F_q; the member is invariant up to scale when one scalar serves them all.
    """
    eps = primitive_fifth_root(q).value
    scalars = {
        pow(eps, sum(w * n for w, n in zip(g.weights, exps)), q)
        for c, exps in zip(a, qf._MONOMIAL_ORDER)
        if c % q
    }
    return len(scalars) == 1


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


def fraction_elimination(m):
    """(rank, det) of an integer matrix by Gaussian elimination over Q.

    det is the determinant when m is square, 0 below full rank and 1 for
    the empty matrix: the oracle for the Bareiss rank, determinant and
    leading minors.
    """
    a = [[Fraction(x) for x in row] for row in m]
    rank, det = 0, Fraction(1)
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            det = Fraction(0)
            continue
        if piv != rank:
            a[rank], a[piv] = a[piv], a[rank]
            det = -det
        top = a[rank]
        det *= top[col]
        for r in range(rank + 1, len(a)):
            f = a[r][col] / top[col]
            if f:
                a[r] = [x - f * y for x, y in zip(a[r], top)]
        rank += 1
    return rank, det


def trial_division_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def scanned_fifth_root(q):
    for g in range(2, q):
        if pow(g, 5, q) == 1:
            return g
    return None


def operator_basis_pair_counts(basis):
    """(subadditive, additive, symbol, precision) failures over the ordered
    pairs of basis, as _basis_pair_counts counts them, each product read by
    the operator definitions: it is its own symbol when symbol(prod) == prod,
    and its pair fails precision when the product at budgets (T + 6, 2),
    truncated back, differs from it.  Products come from pa._product_rows
    as the pass forms them, so a test's mutant of it reaches both."""
    orders = [pa.bold_ord(M) for M in basis]
    own = [pa._same_terms_and_budgets(pa.symbol(M), M) for M in basis]
    high = [
        pa.TruncatedOperator._trusted(B.num, B.den, B.x_precision + 6, B.d_bound) for B in basis
    ]
    sub_fail = eq_fail = sym_fail = prec_fail = 0
    for om, m_own, row, high_row in zip(
        orders, own, pa._product_rows(basis, basis), pa._product_rows(high, high)
    ):
        for on, n_own, prod, hi in zip(orders, own, row, high_row):
            bo = pa.bold_ord(prod)
            sub_fail += bo > om + on
            eq_fail += bo != om + on
            sym_fail += not (m_own and n_own and pa.symbol(prod) == prod)
            prec_fail += hi.truncate(prod.x_precision) != prod
    return sub_fail, eq_fail, sym_fail, prec_fail
