"""Truncated model of the completed ring of partial differential operators.

Operators are finite rational combinations of x1^i1 x2^i2 d1^k1 d2^k2 with
two explicit budgets: x_precision T (coefficients are only trusted below
total x-degree T) and d_bound (the maximal stored derivative degree).
Multiplication is the exact Leibniz product followed by a conservative
precision debit, so every emitted term is reliable.  An operator stores
integer numerators over one positive denominator, reduced so that their gcd
is 1; that form is canonical, so equality compares it directly, and every
kernel works on plain ints.  Fraction appears only at the boundary: the
public constructor takes int or Fraction coefficients (an int is kept as an
int), parse_operator takes Fraction ones, and the coeffs dict, to_string
and spectral_module_action give Fractions back.  On top of the ring live
two order functions (bold_ord and ord_gamma), the symbol calculus, the
growth condition A1(m), quasi-ellipticity and normalization predicates,
linear changes of variables, and the residue-module action.
"""

from __future__ import annotations

import functools
import itertools
import math
import re
from collections.abc import Mapping
from fractions import Fraction
from random import Random
from typing import Dict, List, Optional, Tuple

from .exact_arith import _require_int, _require_rational
from .report import CheckEntry, check

Key = Tuple[int, int, int, int]
Form = Dict[Tuple[int, int], int]  # two-symbol polynomial by exponent pair, integer numerators

NEG_INF = float("-inf")


class PrecisionError(ArithmeticError):
    """The requested operation would exhaust the x-precision budget."""


class UndecidableOrderError(ArithmeticError):
    """Terms beyond the truncation frontier could change the answer."""


class TruncatedOperator:
    """Immutable operator: integer numerators over one denominator, x-precision, d-bound.

    num maps each key to a nonzero integer and den > 0 with
    gcd(den, *num.values()) == 1, so (num, den) is canonical: equal
    operators have equal (num, den).  coeffs is a new Fraction dict of it on
    each read.
    """

    __slots__ = ("num", "den", "x_precision", "d_bound")

    def __init__(
        self,
        coeffs: Mapping[Key, object],
        x_precision: int,
        d_bound: Optional[int] = None,
    ):
        _require_int("x_precision", x_precision, 1)
        if d_bound is not None:
            _require_int("d_bound", d_bound)
        clean: Dict[Key, int | Fraction] = {}
        for key, val in coeffs.items():
            if not isinstance(key, tuple):
                raise TypeError(f"operator key must be a tuple of 4 exponents, got {key!r}")
            if len(key) != 4:
                raise ValueError(f"need 4 exponents, got {key!r}")
            i1, i2, k1, k2 = key
            if any(type(e) is not int for e in key):
                raise TypeError(f"exponents must be ints, got {key!r}")
            if min(i1, i2, k1, k2) < 0:
                raise ValueError(f"negative exponent in {key}")
            _require_rational("coefficient", val)
            if val == 0:
                continue
            if i1 + i2 >= x_precision:
                continue  # beyond the trusted x-degree window
            clean[(i1, i2, k1, k2)] = val
        top_d = max((k1 + k2 for (_, _, k1, k2) in clean), default=0)
        if d_bound is None:
            d_bound = top_d
        elif top_d > d_bound:
            raise ValueError(f"derivative degree {top_d} exceeds d_bound {d_bound}")
        # over the lcm of reduced denominators the numerators are already coprime to it
        self.num, self.den = _integer_form(clean)
        self.x_precision = x_precision
        self.d_bound = d_bound

    @classmethod
    def _trusted(
        cls, num: Dict[Key, int], den: int, x_precision: int, d_bound: int
    ) -> "TruncatedOperator":
        """Wrap num / den, divided by their gcd, without any other check.

        Only for maps that hold by construction: nonzero integer numerators,
        den > 0, x-degree below x_precision >= 1, derivative degree at most
        d_bound.
        """
        if den != 1:  # gcd(1, ...) is 1 for every numerator
            g = math.gcd(den, *num.values())
            if g != 1:
                num = {k: n // g for k, n in num.items()}
                den //= g
        op = object.__new__(cls)
        op.num = num
        op.den = den
        op.x_precision = x_precision
        op.d_bound = d_bound
        return op

    @classmethod
    def zero(cls, x_precision: int) -> "TruncatedOperator":
        return cls({}, x_precision)

    @classmethod
    def one(cls, x_precision: int) -> "TruncatedOperator":
        return cls({(0, 0, 0, 0): 1}, x_precision)

    @classmethod
    def monomial(cls, key: Key, x_precision: int) -> "TruncatedOperator":
        return cls({key: 1}, x_precision)

    @property
    def coeffs(self) -> Dict[Key, Fraction]:
        return {key: Fraction(n, self.den) for key, n in self.num.items()}

    @property
    def is_zero(self) -> bool:
        return not self.num

    def truncate(self, x_precision: int) -> "TruncatedOperator":
        """Forget everything at or above the given x-degree."""
        _require_int("x_precision", x_precision, 1)
        if x_precision >= self.x_precision:
            return self  # every stored term is already below it
        return TruncatedOperator._trusted(
            {k: n for k, n in self.num.items() if k[0] + k[1] < x_precision},
            self.den,
            x_precision,
            self.d_bound,
        )

    def scale(self, c) -> "TruncatedOperator":
        _require_rational("scale", c)
        c = Fraction(c)
        cn = c.numerator
        return TruncatedOperator._trusted(
            {k: cn * n for k, n in self.num.items()} if cn else {},
            self.den * c.denominator,
            self.x_precision,
            self.d_bound,
        )

    def __add__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        den = math.lcm(self.den, other.den)
        fs, fo = den // self.den, den // other.den
        acc = {k: n * fs for k, n in self.num.items()}
        for k, n in other.num.items():
            acc[k] = acc.get(k, 0) + n * fo
        t = min(self.x_precision, other.x_precision)
        return TruncatedOperator._trusted(
            {k: n for k, n in acc.items() if n and k[0] + k[1] < t},
            den,
            t,
            max(self.d_bound, other.d_bound),
        )

    def __sub__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return self + other.scale(-1)

    def __mul__(self, other: "TruncatedOperator") -> "TruncatedOperator":
        return op_mul(self, other)

    def __eq__(self, other) -> bool:
        # budgets are bookkeeping, not values: equality compares terms only
        if not isinstance(other, TruncatedOperator):
            return NotImplemented
        return self.den == other.den and self.num == other.num

    def __hash__(self):
        return hash((frozenset(self.num.items()), self.den))

    def __repr__(self) -> str:
        return (
            f"TruncatedOperator({to_string(self)!r}, "
            f"T={self.x_precision}, d_bound={self.d_bound})"
        )


# one table per (left derivative exponents, right x-exponents, field width) met,
# so as small as the operators
@functools.lru_cache(maxsize=None)
def _leibniz_rows(k1: int, k2: int, j1: int, j2: int, b: int) -> Tuple[Tuple[int, int], ...]:
    """((m1, m2, m1, m2) packed at width b, weight) for m1, then m2, from 0.

    d1^k1 d2^k2 x1^j1 x2^j2 is the sum over m1 <= min(k1, j1), m2 <= min(k2, j2)
    of comb(k1, m1) perm(j1, m1) comb(k2, m2) perm(j2, m2) times
    x1^(j1-m1) x2^(j2-m2) d1^(k1-m1) d2^(k2-m2).
    """
    return tuple(
        ((m1 | m2 << b) * (1 | 1 << 2 * b), c1 * math.comb(k2, m2) * math.perm(j2, m2))
        for m1 in range(min(k1, j1) + 1)
        for c1 in (math.comb(k1, m1) * math.perm(j1, m1),)
        for m2 in range(min(k2, j2) + 1)
    )


def _integer_form(form: Mapping) -> Tuple[dict, int]:
    """(same keys with integer numerators, their common denominator) of an int or Fraction map.

    Only .numerator and .denominator are read, so an int coefficient is
    taken as it is, over denominator 1, with no Fraction made of it.
    """
    den = math.lcm(*(v.denominator for v in form.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in form.items()}, den


def op_mul(P: TruncatedOperator, Q: TruncatedOperator) -> TruncatedOperator:
    """Leibniz product with a conservative precision debit.

    Each derivative of the left factor may consume one reliable x-degree of
    the right factor's coefficients, so the result is trusted only below
    t_res = min(T_P, T_Q) - d_P.  The declared derivative bound adds.  Terms
    at or beyond that x-degree are never formed.  This is the one-pair case
    of _product_rows, which holds the only product body.
    """
    return next(_product_rows((P,), (Q,)))[0]


def _product_rows(As, Bs):
    """Yield [op_mul(A, B) for B in Bs] for each A in As, one row at a time.

    The factors on each side share their budgets (x_precision, d_bound), so
    t_res, the field width b and the packed terms of every B are worked out
    once per call, and one flat table per left derivative pair (k1, k2) that
    occurs (below).  Each product then has its own accumulator; it is
    op_mul(A, B) in terms and budgets, since op_mul is the one-pair call.
    Rows are formed as they are asked for, and the kernel lets go of each
    one when it starts the next.  An empty As yields no row; an empty Bs
    yields one empty row per A, once the left budgets are checked.

    Below, P is any left factor and Q any right one.  Inside, a key
    (i1, i2, k1, k2) is packed into one int with four b-bit fields,
    i1 + i2 2^b + k1 2^(2b) + k2 2^(3b), where b is the bit length of
    max(T_P, T_Q, d_P + d_Q + 1).  Every input exponent (x-degree below
    T_P or T_Q, derivative degree at most d_P or d_Q) and every output
    exponent (x-degree below t_res, derivative degree at most d_P + d_Q) is
    below 2^b.  The Leibniz term (m1, m2) of a left key p and a right key q
    has the key p + q - off, off = (m1, m2, m1, m2), all three packed.  Ints
    are exact, so that is the sum over fields f of (p_f + q_f - m_f) 2^(f b),
    and each such field of a kept term lies in [0, 2^b): the sum is the
    term's packed key, with no field carrying into or borrowing from its
    neighbour.

    The table of (k1, k2) holds, per right factor, one entry per distinct
    folded offset q - off over its (right term, Leibniz row) pairs: (lim,
    q - off, the sum of c_q w), for right terms of numerator c_q and rows of
    weight w.  The folded offset is negative as an int when a d-field of q
    is below its m, but p + (q - off) is the same integer as p + q - off, so
    the argument above holds for it, and only the final key of a kept term
    is unpacked.  Its two x-fields are nonnegative, so they are its low 2b
    bits, and lim is minus their sum, the folded key's x-degree.  The term's
    x-degree i1 + i2 - lim is below t_res exactly when lim > i1 + i2 -
    t_res; the pairs merged into one entry land on one key p + (q - off) for
    every p, so they share that x-degree and the precision cut still reads
    the entry alone.  An entry whose sum is 0 contributes nothing to any
    product and is dropped.  Each entry costs one product a times its sum.
    """
    if not As:
        return
    tp, dp = As[0].x_precision, As[0].d_bound
    for A in As:
        if A.x_precision != tp or A.d_bound != dp:
            raise ValueError(
                f"left factors do not share their budgets: ({tp}, {dp}) and "
                f"({A.x_precision}, {A.d_bound})"
            )
    if not Bs:
        for _ in As:
            yield []
        return
    tq, dq = Bs[0].x_precision, Bs[0].d_bound
    b = max(tp, tq, dp + dq + 1).bit_length()
    b2, b3, mask = 2 * b, 3 * b, (1 << b) - 1
    # per right factor: its packed terms, each with numerator and j1, j2
    q_terms: List[list] = []
    for B in Bs:
        if B.x_precision != tq or B.d_bound != dq:
            raise ValueError(
                f"right factors do not share their budgets: ({tq}, {dq}) and "
                f"({B.x_precision}, {B.d_bound})"
            )
        terms = []
        for (j1, j2, l1, l2), c in B.num.items():
            terms.append((j1 | j2 << b | l1 << b2 | l2 << b3, c, j1, j2))
        q_terms.append(terms)
    t_res = min(tp, tq) - dp
    if t_res < 1:
        raise PrecisionError(
            f"budget exhausted: min precision {min(tp, tq)} "
            f"minus left derivative bound {dp} leaves {t_res}"
        )
    # by the packed derivative exponents k1, k2 of a left term: per right
    # factor, one entry (lim, q - off, sum of c_q w) per distinct folded offset
    tables: Dict[int, list] = {}
    trusted = TruncatedOperator._trusted
    for A in As:
        p_terms = []
        for (i1, i2, k1, k2), a in A.num.items():
            kk = k1 | k2 << b
            table = tables.get(kk)
            if table is None:
                table = tables[kk] = []
                for terms in q_terms:
                    merged: Dict[int, int] = {}
                    for qk, c, j1, j2 in terms:
                        for off, w in _leibniz_rows(k1, k2, j1, j2, b):
                            qo = qk - off
                            merged[qo] = merged.get(qo, 0) + c * w
                    table.append(
                        [
                            (-(qo & mask) - (qo >> b & mask), qo, cw)
                            for qo, cw in merged.items()
                            if cw
                        ]
                    )
            # the entry's term is kept when its lim exceeds i1 + i2 - t_res
            p_terms.append((i1 | i2 << b | kk << b2, a, i1 + i2 - t_res, table))
        row = []
        for n, B in enumerate(Bs):
            acc: Dict[int, int] = {}
            get = acc.get
            for pk, a, over, table in p_terms:
                for lim, qo, cw in table[n]:
                    if lim > over:
                        key = pk + qo
                        acc[key] = get(key, 0) + a * cw
            num: Dict[Key, int] = {}
            for key, v in acc.items():
                if v:
                    num[(key & mask, key >> b & mask, key >> b2 & mask, key >> b3)] = v
            row.append(trusted(num, A.den * B.den, t_res, dp + dq))
        yield row


def bold_ord(P: TruncatedOperator):
    """sup over terms of (derivative degree - x-degree); -inf for zero.

    An unseen term hides at x-degree >= T with derivative degree <= d_bound,
    so it can contribute at most d_bound - T.  If every stored term sits
    strictly below that frontier the supremum is undecidable at this budget.
    """
    if not P.num:
        return NEG_INF
    sup = NEG_INF
    for i1, i2, k1, k2 in P.num:
        grade = k1 + k2 - i1 - i2
        if grade > sup:
            sup = grade
    if sup < P.d_bound - P.x_precision:
        raise UndecidableOrderError(
            f"stored supremum {sup} is below the truncation frontier "
            f"{P.d_bound - P.x_precision}"
        )
    return sup


def homogeneous_component(P: TruncatedOperator, m: int) -> TruncatedOperator:
    """Terms with (x-degree) - (derivative degree) equal to m; P itself if that is all of them."""
    _require_int("m", m)
    num = {k: n for k, n in P.num.items() if (k[0] + k[1]) - (k[2] + k[3]) == m}
    if len(num) == len(P.num):
        return P
    return TruncatedOperator._trusted(num, P.den, P.x_precision, P.d_bound)


def symbol(P: TruncatedOperator) -> TruncatedOperator:
    """The homogeneous component of P at grade -ord(P); P itself for P = 0, whose ord is -inf."""
    if P.is_zero:
        return P
    return homogeneous_component(P, -bold_ord(P))


def _top_d2(P: TruncatedOperator) -> Tuple[int, Dict[Key, int]]:
    """(l, the terms of d2-degree l) for the top d2-degree l of P."""
    if P.is_zero:
        raise ValueError("zero operator has no graded order")
    l = max(key[3] for key in P.num)
    return l, {key: n for key, n in P.num.items() if key[3] == l}


def ord_gamma(P: TruncatedOperator) -> Tuple[int, int]:
    """(k, l): l the top d2-degree, k the d1-order of its coefficient."""
    l, top = _top_d2(P)
    return (max(key[2] for key in top), l)


def ht_2(P: TruncatedOperator) -> TruncatedOperator:
    """The coefficient of the top d2-power, with that power stripped off."""
    _, top = _top_d2(P)
    return TruncatedOperator._trusted(
        {(i1, i2, k1, 0): n for (i1, i2, k1, _), n in top.items()},
        P.den,
        P.x_precision,
        P.d_bound,
    )


def is_monic(P: TruncatedOperator) -> bool:
    """Top coefficient is exactly 1 (constant, no x-dependence)."""
    if P.is_zero:
        return False
    l, top = _top_d2(P)
    k = max(key[2] for key in top)
    return {key: n for key, n in top.items() if key[2] == k} == {(0, 0, k, l): P.den}


def a1_check(P: TruncatedOperator, m: int) -> bool:
    """Growth condition: every stored term has x-degree >= d-degree - m."""
    _require_int("m", m)
    return all(
        i1 + i2 >= k1 + k2 - m for (i1, i2, k1, k2) in P.num
    )


def is_quasi_elliptic_pair(P: TruncatedOperator, Q: TruncatedOperator) -> bool:
    """Both monic, graded orders (0, k) with k >= 1 and (1, l)."""
    if P.is_zero or Q.is_zero:
        return False
    kp, lp = ord_gamma(P)
    kq, lq = ord_gamma(Q)
    return (
        kp == 0 and lp >= 1 and kq == 1 and is_monic(P) and is_monic(Q)
    )


def is_one_quasi_elliptic_pair(P: TruncatedOperator, Q: TruncatedOperator) -> bool:
    """Quasi-elliptic with matching plain orders and growth level k + l."""
    if not is_quasi_elliptic_pair(P, Q):
        return False
    k = ord_gamma(P)[1]
    l = ord_gamma(Q)[1]
    if not (a1_check(P, k + l) and a1_check(Q, k + l)):
        return False
    return bold_ord(P) == k and bold_ord(Q) == 1 + l


def is_normalized_pair(P: TruncatedOperator, Q: TruncatedOperator) -> bool:
    """P = d2^k + (terms of d2-degree <= k-2), Q = d1 d2^l + lower d2-terms."""
    if P.is_zero or Q.is_zero:
        return False
    k, p_top = _top_d2(P)
    if k < 1 or p_top != {(0, 0, 0, k): P.den}:
        return False
    if any(key[3] == k - 1 for key in P.num):
        return False
    l, q_top = _top_d2(Q)
    return q_top == {(0, 0, 1, l): Q.den}


def _convolve(f: Form, g: Form) -> Form:
    """Product of two commuting polynomials in two symbols."""
    out: Form = {}
    for (a1, a2), u in f.items():
        for (b1, b2), v in g.items():
            key = (a1 + b1, a2 + b2)
            out[key] = out.get(key, 0) + u * v
    return out


def _powers(form: Form, n: int) -> List[Form]:
    """[form^0, form^1, ..., form^n] by repeated convolution."""
    out: List[Form] = [{(0, 0): 1}]
    for _ in range(n):
        out.append(_convolve(out[-1], form))
    return out


# a property check applies one substitution to several operators in a row
@functools.lru_cache(maxsize=16, typed=True)  # typed: 0.5 must not hit Fraction(1, 2)'s entry
def _substitution_images(a, b, c, d, e) -> Tuple[Tuple[Form, int], ...]:
    """Images of x1, x2 (forms on x1, x2) and of d1, d2 (forms on d1, d2).

    Each is (integer numerators, denominator); the key (0, 0) is the
    constant.  The forms are shared between calls and must not be mutated.
    """
    for name, v in zip("abcde", (a, b, c, d, e)):
        _require_rational(name, v)
    a, b, c, d, e = (Fraction(v) for v in (a, b, c, d, e))
    if a == 0 or e == 0:
        raise ValueError("diagonal parameters a and e must be nonzero")
    return tuple(
        _integer_form({k: v for k, v in img.items() if v})
        for img in (
            {(1, 0): 1 / e, (0, 1): -c / (a * e)},
            {(0, 1): 1 / a},
            {(1, 0): e, (0, 0): d},
            {(1, 0): c, (0, 1): a, (0, 0): b},
        )
    )


def change_variables(
    P: TruncatedOperator, a, b, c, d, e
) -> TruncatedOperator:
    """Linear substitution d2 -> a d2 + c d1 + b, d1 -> e d1 + d.

    The x-generators follow the dual images x1 -> e^-1 x1 - c/(ae) x2,
    x2 -> a^-1 x2 so that all canonical commutators are preserved.  The
    substitution is exact: x-images are linear in x, derivative images are
    constant-coefficient, so no precision is spent.

    The image of x^i d^k is X(i1, i2) D(k1, k2), an x-form times a
    constant-coefficient d-form, which is already in normal order.  So each
    D(k1, k2) is built once, the scaled D's of the terms that share (i1, i2)
    are summed, and X(i1, i2) multiplies that sum once: by distributivity the
    same integer sums as term by term.  The result's key order is
    unspecified, like op_mul's; every caller reads it as a mapping.
    """
    images = _substitution_images(a, b, c, d, e)
    powers = [
        _powers(form, max((key[slot] for key in P.num), default=0))
        for slot, (form, _) in enumerate(images)
    ]
    (_, x1_den), (_, x2_den), (_, d1_den), (_, d2_den) = images
    x_dens = {(i1, i2): x1_den**i1 * x2_den**i2 for i1, i2 in {key[:2] for key in P.num}}
    d_dens = {(k1, k2): d1_den**k1 * d2_den**k2 for k1, k2 in {key[2:] for key in P.num}}
    lcm = math.lcm(*(x_dens[key[:2]] * d_dens[key[2:]] for key in P.num))
    d_forms = {(k1, k2): _convolve(powers[2][k1], powers[3][k2]) for k1, k2 in d_dens}
    sums: Dict[Tuple[int, int], Form] = {x: {} for x in x_dens}
    for (i1, i2, k1, k2), num in P.num.items():
        scale = num * (lcm // (x_dens[i1, i2] * d_dens[k1, k2]))
        s = sums[i1, i2]
        for dk, dv in d_forms[k1, k2].items():
            s[dk] = s.get(dk, 0) + scale * dv
    acc: Dict[Key, int] = {}
    for (i1, i2), s in sums.items():
        for (xi1, xi2), xv in _convolve(powers[0][i1], powers[1][i2]).items():
            for (dk1, dk2), dv in s.items():
                key = (xi1, xi2, dk1, dk2)
                acc[key] = acc.get(key, 0) + xv * dv
    return TruncatedOperator._trusted(
        {k: n for k, n in acc.items() if n},
        P.den * lcm,
        P.x_precision,
        P.d_bound,
    )


def special_change(P: TruncatedOperator, b, c, d) -> TruncatedOperator:
    """The unipotent case a = e = 1 of change_variables."""
    return change_variables(P, 1, b, c, d, 1)


def spectral_module_action(
    P: TruncatedOperator, monomial: Tuple[int, int]
) -> Dict[Tuple[int, int], Fraction]:
    """Right action of P on a residue class modulo x1 and x2.

    The class is the derivative monomial d1^p1 d2^p2; multiply on the right
    by P, then kill every term with positive x-degree.  The classes come
    back sorted by key.
    """
    p1, p2 = monomial
    _require_int("p1", p1, 0)
    _require_int("p2", p2, 0)
    cls = TruncatedOperator._trusted({(0, 0, p1, p2): 1}, 1, P.x_precision, p1 + p2)
    prod = op_mul(cls, P)
    act = {
        (k1, k2): Fraction(n, prod.den)
        for (i1, i2, k1, k2), n in prod.num.items()
        if i1 == 0 and i2 == 0
    }
    return dict(sorted(act.items()))


# one token and the whitespace after it: a sign, a coefficient n or n/m, or a factor;
# digits are ASCII, as to_string writes them (\d would also take other scripts' digits)
_TOKEN_RE = re.compile(r"(?:([+-])|([0-9]+(?:/[0-9]+)?)|(x1|x2|d1|d2)(?:\^([0-9]+))?)\s*")
_SLOT = {"x1": 0, "x2": 1, "d1": 2, "d2": 3}


def to_string(P: TruncatedOperator) -> str:
    """Canonical text form: terms in lexicographic key order."""
    if P.is_zero:
        return "0"
    bits: List[str] = []
    for key, v in sorted(P.coeffs.items()):
        factors = []
        for name, slot in _SLOT.items():
            e = key[slot]
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        mag = abs(v)
        if mag != 1 or not factors:
            factors.insert(0, str(mag))
        term = " ".join(factors)
        if not bits:
            bits.append(term if v > 0 else f"-{term}")
        else:
            bits.append(("+ " if v > 0 else "- ") + term)
    return " ".join(bits)


def parse_operator(
    text: str, x_precision: int, d_bound: Optional[int] = None
) -> TruncatedOperator:
    """Parse the term grammar `coef x1^i1 x2^i2 d1^k1 d2^k2` joined by +/-.

    Whitespace may stand between tokens, never inside one: "2 3 x1" is
    refused, not read as 23 x1.
    """
    terms: List[Tuple[int, list]] = [(1, [])]  # (sign, tokens) per term
    pos = len(text) - len(text.lstrip())
    while pos < len(text):
        tok = _TOKEN_RE.match(text, pos)
        if not tok:
            raise ValueError(f"cannot parse {text[pos:]!r} in {text!r}")
        pos = tok.end()
        if tok.group(1):
            terms.append((-1 if tok.group(1) == "-" else 1, []))
        else:
            terms[-1][1].append(tok)
    # only the first term may be empty: a leading sign, or no text at all
    if not all(toks for _, toks in terms[1:]):
        raise ValueError(f"dangling sign in {text!r}")
    acc: Dict[Key, Fraction] = {}
    for sign, toks in terms:
        coef, exps = Fraction(sign), [0, 0, 0, 0]
        for n, tok in enumerate(toks):
            _, num, name, power = tok.groups()
            if num:
                if n:
                    raise ValueError(f"coefficient {num!r} does not lead its term in {text!r}")
                try:
                    coef *= Fraction(num)
                except ZeroDivisionError:
                    raise ValueError(f"zero denominator in {num!r} of {text!r}") from None
                continue
            slot = _SLOT[name]
            # d1 x1 = x1 d1 + 1, so a term with x after d is not one monomial
            if slot < 2 and exps[2] + exps[3]:
                raise ValueError(f"x-factor after a d-factor in {text!r}")
            exps[slot] += int(power or 1)
        if toks:
            acc[tuple(exps)] = acc.get(tuple(exps), Fraction(0)) + coef
    return TruncatedOperator(acc, x_precision, d_bound)


class _Basis(list):
    """The basis operators of one suite call, with pair_counts once they are made."""

    __slots__ = ("pair_counts",)


def _monomial_basis(x_precision: int) -> _Basis:
    """The 36 monomials x1^i1 x2^i2 d1^k1 d2^k2 with i1 + i2 <= 2 and k1 + k2 <= 2.

    Those of x-degree below x_precision, each at budgets (x_precision, 2).
    """
    return _Basis(
        TruncatedOperator._trusted({key: 1}, 1, x_precision, 2)
        for key in itertools.product(range(3), repeat=4)
        if key[0] + key[1] <= 2 and key[2] + key[3] <= 2 and key[0] + key[1] < x_precision
    )


def _basis_pair_counts(basis: _Basis) -> Tuple[int, int, int, int]:
    """Failures of (subadditive order, additive order, symbol, precision) over basis pairs.

    One pass forms each product M N of the ordered pairs of basis once, at
    budgets (T, 2), and its twin at budgets (T + 6, 2), and reads each once,
    making no operator of its own.  The orders come from one bold_ord of the
    product.  A nonzero product is its own symbol exactly when its terms
    share one k1 + k2 - i1 - i2, its order, so one grade; the zero product
    is its own symbol, as symbol says.  A plain loop reads that: it takes
    the first term's grade and stops at the first term of another, each
    grade computed from the key, not from bold_ord.  A pair fails precision
    when the twin's denominator or its terms below the product's
    x-precision differ from the product's: that is twin.truncate(T') !=
    product, since every factor is a monomial over den 1 (_monomial_basis),
    so both have den 1 and truncating the twin never divides out a gcd.
    Every key of the product lies below its x-precision, so a twin with the
    product's very terms passes, and the filtered copy of the twin is built
    only when the two differ.  The counts are kept on basis, so the two laws
    that read them share the pass within one suite call; at most one row of
    products is alive at once, besides the next while it is formed.
    """
    counts = getattr(basis, "pair_counts", None)
    if counts is not None:
        return counts
    orders = [bold_ord(M) for M in basis]
    # op_mul reads only terms and budgets, so where symbol(M) is M in both,
    # op_mul(symbol(M), symbol(N)) is the basis product M N itself
    own = [_same_terms_and_budgets(symbol(M), M) for M in basis]
    high = [TruncatedOperator._trusted(B.num, B.den, B.x_precision + 6, B.d_bound) for B in basis]
    sub_fail = eq_fail = sym_fail = prec_fail = 0
    for om, m_own, row, high_row in zip(
        orders, own, _product_rows(basis, basis), _product_rows(high, high)
    ):
        for on, n_own, prod, hi in zip(orders, own, row, high_row):
            bo = bold_ord(prod)
            sub_fail += bo > om + on
            eq_fail += bo != om + on
            own_symbol = m_own and n_own
            if own_symbol and prod.num:
                terms = iter(prod.num)
                i1, i2, k1, k2 = next(terms)
                grade = k1 + k2 - i1 - i2
                for i1, i2, k1, k2 in terms:
                    if k1 + k2 - i1 - i2 != grade:
                        own_symbol = False
                        break
            sym_fail += not own_symbol
            t = prod.x_precision
            prec_fail += hi.den != prod.den or (
                hi.num != prod.num
                and {k: n for k, n in hi.num.items() if k[0] + k[1] < t} != prod.num
            )
    basis.pair_counts = (sub_fail, eq_fail, sym_fail, prec_fail)
    return basis.pair_counts


# Schwartz-Zippel: a nonzero polynomial of total degree D vanishes at a point
# drawn uniformly from S^n with probability at most D/|S|; here S = [1, 2^64)
_GENERIC_BOUND = 2**64


def _generic_operator(rng: Random, keys, x_precision: int, d_bound: int) -> TruncatedOperator:
    """One dense operator: each of keys gets a coefficient from [1, 2^64), in keys' order."""
    num = {key: rng.randrange(1, _GENERIC_BOUND) for key in keys}
    return TruncatedOperator._trusted(num, 1, x_precision, d_bound)


def _generic_shear_images(rng: Random, x_precision: int):
    """(rising, tops) under one generic shear (b, c, d) drawn from [1, 2^64)^3.

    rising counts the 36 tail monomials x1^i1 x2^i2 d1^k1 d2^s (i1, i2 <= 2,
    k1, s <= 1) whose image has a term above d2-degree s; tops holds the
    images of the 4 top pairs (d2^k, d1 d2^l), k in {2, 3} and l in {1, 2}.
    """
    # A normalized pair is d2^k + tail and d1 d2^l + tail, each tail a combination
    # of the 36 with s below the top's d2-degree.  special_change is linear, so
    # with no tail rising a sheared pair has the top d2-slices, and P the
    # d2^(k-1) row, of its sheared tops.  An image coefficient has degree
    # i1 + k1 + s <= 4 in (b, c, d) for a tail (x2 is fixed) and <= 3 for a top.
    b, c, d = (rng.randrange(1, _GENERIC_BOUND) for _ in range(3))

    def sheared(key: Key) -> TruncatedOperator:
        return special_change(TruncatedOperator.monomial(key, x_precision), b, c, d)

    rising = sum(
        any(k[3] > key[3] for k in sheared(key).num)
        for key in itertools.product(range(3), range(3), range(2), range(2))
    )
    tops = [(sheared((0, 0, 0, k)), sheared((0, 0, 1, l))) for k in (2, 3) for l in (1, 2)]
    return rising, tops


def normalized_shape_preserved_under_special_change(
    trials: int = 50, seed: int = 42, x_precision: int = 12
) -> bool:
    """Does every normalized pair stay normalized under every shear change?

    Decided at one generic shear from Random(seed); trials is only validated.
    """
    # False is exact: a top pair (d2^k, d1 d2^l) is a normalized pair with zero
    # tails, so a sheared top pair that is not normalized is a counterexample.
    # True covers every pair and every shear: with no tail rising and every
    # sheared top pair normalized, every sheared pair is.  A wrong True needs a
    # zero of a rising tail's coefficient (degree <= 4) or of a top's (<= 3),
    # so its probability is at most 4/(2^64 - 1).
    # Random(-s) draws what Random(s) draws, and Random(True) and Random(1.0) what
    # Random(1) draws: a negative, bool or float seed would rerun another seed's draws.
    _require_int("trials", trials, 1)
    _require_int("seed", seed, 0)
    rising, tops = _generic_shear_images(Random(seed), x_precision)
    return not rising and all(is_normalized_pair(P, Q) for P, Q in tops)


def _agree(A: TruncatedOperator, B: TruncatedOperator) -> bool:
    """Same terms below the common x-precision of A and B."""
    t = min(A.x_precision, B.x_precision)
    return A.truncate(t) == B.truncate(t)


def _same_terms_and_budgets(A: TruncatedOperator, B: TruncatedOperator) -> bool:
    """A and B are the same operator at the same x-precision and d_bound."""
    return (A.num, A.den, A.x_precision, A.d_bound) == (B.num, B.den, B.x_precision, B.d_bound)


def _law_relations(rng: Random, T: int, basis) -> List[CheckEntry]:
    d1 = TruncatedOperator.monomial((0, 0, 1, 0), T)
    x1 = TruncatedOperator.monomial((1, 0, 0, 0), T)
    euler = parse_operator("x1 d1", T)
    return [
        check(
            "pdo.defining_relation",
            "[d1, x1] = 1",
            TruncatedOperator.one(T - 1),
            op_mul(d1, x1) - op_mul(x1, d1),
            "trivial",
        ),
        check(
            "pdo.euler_square",
            "(x1 d1)^2 = x1^2 d1^2 + x1 d1",
            parse_operator("x1^2 d1^2 + x1 d1", T - 1),
            op_mul(euler, euler),
            "derived",
        ),
    ]


def _law_associativity(rng: Random, T: int, basis) -> List[CheckEntry]:
    # With both budgets fixed op_mul is bilinear and truncate linear, so each
    # coefficient of (PQ)R - P(QR) is a trilinear polynomial in the 108
    # coefficients of P, Q and R on the basis; one generic triple decides it.
    # (PQ)R is trusted below x-degree T - 6, where _agree compares.  A term of
    # P(QR) has x-degree at least its QR term's minus d_P = 2, so QR is cut
    # at T - 4: P(QR) then lands at T - 6 too, with every compared term kept.
    keys = [key for B in basis for key in B.num]
    P, Q, R = (_generic_operator(rng, keys, T, 2) for _ in range(3))
    lhs = op_mul(op_mul(P, Q), R)
    rhs = op_mul(P, op_mul(Q, R).truncate(T - 4))
    return [
        check(
            "pdo.associativity",
            "(PQ)R = P(QR) on one generic triple, miss probability <= 3/(2^64 - 1)",
            0,
            int(not _agree(lhs, rhs)),
            "derived",
        )
    ]


def _law_order_and_symbol(rng: Random, T: int, basis) -> List[CheckEntry]:
    # Let P and Q be combinations of basis; op_mul is bilinear at fixed
    # budgets.  If each basis product M N is homogeneous of order
    # ord M + ord N, then every term of PQ has order at most
    # ord P + ord Q and the slice at that order is sigma(P) sigma(Q); where
    # that is nonzero the orders add and sigma(PQ) = sigma(P) sigma(Q).  So
    # the basis products decide both laws for every rational P and Q.
    sub_fail, eq_fail, sym_fail, _ = _basis_pair_counts(basis)
    work = f"{len(basis) ** 2} products of the {len(basis)} basis monomials"
    # strict drop at the truncation frontier: both symbols are pure
    # x-monomials whose product falls outside every trusted window
    hp = TruncatedOperator.monomial((T - 1, 0, 0, 0), T)
    hq = TruncatedOperator.monomial((0, T - 1, 0, 0), T)
    return [
        check(
            "pdo.order_subadditive",
            f"ord(PQ) <= ord(P) + ord(Q): {work}",
            0,
            sub_fail,
            "derived",
        ),
        check(
            "pdo.order_additive_nonzero_symbols",
            f"ord(PQ) = ord(P) + ord(Q) when sigma(P) sigma(Q) != 0: {work}",
            0,
            eq_fail,
            "derived",
        ),
        check(
            "pdo.symbol_multiplicative",
            f"sigma(PQ) = sigma(P) sigma(Q) when nonzero: {work}, each homogeneous",
            0,
            sym_fail,
            "derived",
        ),
        check(
            "pdo.order_strict_drop",
            "constructed vanishing-symbol product drops strictly",
            True,
            bold_ord(op_mul(hp, hq)) < bold_ord(hp) + bold_ord(hq),
            "derived",
        ),
    ]


def _graded_monic_span(x_precision: int):
    """(span, tops) for the graded monic operators at budgets (T, 4), T >= 3.

    Such an operator is c d1^k d2^l (k <= 2, 1 <= l <= 2) plus tail terms
    x1^i1 x2^i2 d1^k1 d2^k2 with i1 + i2 <= 2, k1 <= 2 and k2 < l.  tops
    are the six d1^k d2^l; span is the 36 tail monomials (k2 <= 1) and the
    three tops of l = 2, the 39 monomials every one of them is a combination of.
    """

    def mono(key: Key) -> TruncatedOperator:
        return TruncatedOperator._trusted({key: 1}, 1, x_precision, 4)

    tops = [mono((0, 0, k, l)) for l in (1, 2) for k in range(3)]
    tails = [
        mono(key)
        for key in itertools.product(range(3), range(3), range(3), range(2))
        if key[0] + key[1] <= 2
    ]
    return tails + tops[3:], tops


def _law_graded_order(rng: Random, T: int, basis) -> List[CheckEntry]:
    # A graded monic operator is c top + tail, each tail term of d2-degree below the top's.
    # op_mul is bilinear at fixed budgets, so if no product of two span
    # monomials A, B has a term above d2-degree d2(A) + d2(B) (the
    # d2-filtration), everything in PQ but c c' top top' lies below the
    # d2-degree l + l' of top top'.  The top d2-slice of PQ is then c c'
    # times that of top top', and the 36 top pairs decide both laws.
    span, tops = _graded_monic_span(T)
    d2 = [next(iter(A.num))[3] for A in span]
    filt_fail = 0
    for da, row in zip(d2, _product_rows(span, span)):
        for db, AB in zip(d2, row):
            top = da + db
            for key in AB.num:
                if key[3] > top:
                    filt_fail += 1
                    break
    # the tops and their ht_2 all sit at budgets (T, 4): one row call each.
    # ht_2(d1^k d2^l) is d1^k for either l: the 9 products d1^k d1^k' are all that differ
    gammas = [ord_gamma(P) for P in tops]
    hts = [ht_2(P) for P in tops[:3]]
    ht_rows = list(_product_rows(hts, hts))
    gamma_fail = ht_fail = 0
    for (kp, lp), row in zip(gammas, _product_rows(tops, tops)):
        for (kq, lq), prod in zip(gammas, row):
            gamma_fail += ord_gamma(prod) != (kp + kq, lp + lq)
            ht_fail += not _agree(ht_2(prod), ht_rows[kp][kq])
    work = f"d2-filtration on {len(span) ** 2} monomial pairs, {len(tops) ** 2} top pairs"
    return [
        check(
            "pdo.gamma_order_additive",
            f"graded order adds on monic-leading pairs: {work}",
            0,
            filt_fail + gamma_fail,
            "derived",
        ),
        check(
            "pdo.highest_term_multiplicative",
            f"top d2-coefficients multiply: {work}",
            0,
            filt_fail + ht_fail,
            "derived",
        ),
    ]


def _law_a1(rng: Random, T: int, basis) -> List[CheckEntry]:
    # An operator of growth level m, in the span checked here, is a combination
    # at budgets (T, 2) of the 90 monomials x1^i1 x2^i2 d1^k1 d2^k2 with
    # i1 <= 4, i2 <= 2 and k1 + k2 <= 2 whose grade k1 + k2 - i1 - i2 is at
    # most m; T >= 10 keeps all of them.  op_mul is bilinear, so if P_g Q_h has
    # level g + h for dense P_g and Q_h on the monomials of grades g and h,
    # every product of levels m1 and m2 has level m1 + m2.  Each coefficient of
    # P_g Q_h is bilinear in their coefficients; P and Q are drawn apart, since
    # in P_g P_g a defect of M N could cancel one of N M.
    grades: Dict[int, List[Key]] = {}
    for key in itertools.product(range(5), range(3), range(3), range(3)):
        if key[2] + key[3] <= 2:
            grades.setdefault(key[2] + key[3] - key[0] - key[1], []).append(key)

    levels = sorted(grades)
    P, Q = ([_generic_operator(rng, grades[g], T, 2) for g in levels] for _ in range(2))
    a1_fail = sum(
        not a1_check(PQ, g + h)
        for g, row in zip(levels, _product_rows(P, Q))
        for h, PQ in zip(levels, row)
    )
    work = f"{len(P) * len(Q)} grade pairs of {sum(map(len, grades.values()))} monomials"
    return [
        check(
            "pdo.a1_closure",
            f"growth levels add under multiplication: {work}, miss probability <= 2/(2^64 - 1)",
            0,
            a1_fail,
            "derived",
        )
    ]


def _law_ring_map(rng: Random, T: int, basis) -> List[CheckEntry]:
    # The ring-map defect is a polynomial once powers of a and e are cleared.
    # A term x1^i1 x2^i2 d^k (i = i1 + i2) maps to N / (a^i e^i1), where N has
    # degree i1 + k in a..e.  PQ has i, k <= 4, so a^4 e^4 phi(PQ) has degree
    # at most 8 + k - i <= 12 in a..e; P and Q have i, k <= 2, so a^2 e^2
    # phi(P) has degree at most 4 + k - i <= 6, and their product <= 12.  With
    # degree 2 in the coefficients of P and Q, D = 14.  Each commutator defect,
    # times a e, has degree 2 in a..e.
    params = [rng.randrange(1, _GENERIC_BOUND) for _ in range(5)]
    keys = [key for B in basis for key in B.num]
    P, Q = _generic_operator(rng, keys, T, 2), _generic_operator(rng, keys, T, 2)
    lhs = change_variables(op_mul(P, Q), *params)
    rhs = op_mul(change_variables(P, *params), change_variables(Q, *params))
    # the x-images share budgets (T, 0) and the d-images (T, 1)
    xs, ds = (
        [change_variables(TruncatedOperator.monomial(key, T), *params) for key in pair]
        for pair in (((1, 0, 0, 0), (0, 1, 0, 0)), ((0, 0, 1, 0), (0, 0, 0, 1)))
    )
    # equality compares terms only, so one(T) and zero(T) serve at every precision
    one, zero = TruncatedOperator.one(T), TruncatedOperator.zero(T)
    xd = list(_product_rows(xs, ds))
    comm_fail = sum(
        dx - xd[j][i] != (one if i == j else zero)
        for i, row in enumerate(_product_rows(ds, xs))
        for j, dx in enumerate(row)
    )
    return [
        check(
            "pdo.change_is_ring_map",
            "substitution commutes with multiplication on one generic trial, "
            "every a, e != 0, miss probability <= 14/(2^64 - 1)",
            0,
            int(not _agree(lhs, rhs)),
            "derived",
        ),
        check(
            "pdo.change_commutators",
            "canonical commutators preserved by one generic substitution, "
            "every a, e != 0, miss probability <= 2/(2^64 - 1)",
            0,
            comm_fail,
            "derived",
        ),
    ]


def _law_quasi_elliptic(rng: Random, T: int, basis) -> List[CheckEntry]:
    # is_quasi_elliptic_pair reads only top d2-slices, so with no tail rising the
    # 4 sheared top pairs decide every pair (_generic_shear_images).  A top slice
    # wrong at some shear is missed only at a zero of a product of two conditions
    # of degree <= 3 (one may be minus 1): one shear decides every b, c, d.
    rising, tops = _generic_shear_images(rng, T)
    top_fail = sum(not is_quasi_elliptic_pair(P, Q) for P, Q in tops)
    return [
        check(
            "pdo.quasi_elliptic_preserved",
            "shear changes keep pairs quasi-elliptic: one generic shear of the 36 "
            "tail monomials and the 4 top pairs, miss probability <= 6/(2^64 - 1)",
            0,
            rising + top_fail,
            "derived",
        )
    ]


def _law_precision(rng: Random, T: int, basis) -> List[CheckEntry]:
    # Once both precisions and the left d_bound are fixed, op_mul is bilinear
    # and truncate linear, so agreement on every ordered pair of basis
    # operators proves it for every pair of combinations of basis.
    prec_fail = _basis_pair_counts(basis)[3]
    return [
        check(
            "pdo.precision_soundness",
            "higher budgets refine, never contradict",
            0,
            prec_fail,
            "derived",
        )
    ]


def _law_reassembly(rng: Random, T: int, basis) -> List[CheckEntry]:
    # Each basis operator is one term of one grade g, and every combination of
    # basis has grades in -2..2 only. homogeneous_component is linear in P, so
    # if it keeps each basis operator at m == g and drops it at every other m,
    # the components of any combination over its grades hold each of its terms
    # once and sum back to it. A failure counts one (operator, m) pair.
    reasm_fail = 0
    zero = TruncatedOperator.zero(T)
    for P in basis:
        ((key, _),) = P.num.items()
        g = (key[0] + key[1]) - (key[2] + key[3])
        for m in range(-2, 3):
            if homogeneous_component(P, m) != (P if m == g else zero):
                reasm_fail += 1
    return [
        check(
            "pdo.component_reassembly",
            "graded components sum back to the operator",
            0,
            reasm_fail,
            "derived",
        )
    ]


def _law_module_action(rng: Random, T: int, basis) -> List[CheckEntry]:
    act = spectral_module_action(parse_operator("x1 d1", T), (1, 0))
    torsion_fail = 0
    for p1, p2, k in itertools.product(range(3), range(3), range(1, 4)):
        d2k = TruncatedOperator.monomial((0, 0, 0, k), T)
        if not any(spectral_module_action(d2k, (p1, p2)).values()):
            torsion_fail += 1
    return [
        check(
            "pdo.module_action_reduction",
            "class d1 acted by x1 d1 reduces to d1",
            {(1, 0): Fraction(1)},
            act,
            "derived",
        ),
        check(
            "pdo.module_torsion_free",
            "no nonzero class dies against a monic pure d2-power",
            0,
            torsion_fail,
            "derived",
        ),
    ]


def _law_normalized_examples(rng: Random, T: int, basis) -> List[CheckEntry]:
    P0 = parse_operator("d2^2", T)
    Q0 = parse_operator("d1 d2", T)
    return [
        check(
            "pdo.normalized_example",
            "pure pair (d2^2, d1 d2) is quasi-elliptic, 1-quasi-elliptic and normalized",
            (True, True, True),
            (
                is_quasi_elliptic_pair(P0, Q0),
                is_one_quasi_elliptic_pair(P0, Q0),
                is_normalized_pair(P0, Q0),
            ),
            "trivial",
        ),
        check(
            "pdo.normalized_rejects_subtop",
            "a d2^(k-1) term breaks the normalized shape",
            False,
            is_normalized_pair(parse_operator("d2^2 + d2", T), Q0),
            "trivial",
        ),
    ]


_LAWS = (
    _law_relations,
    _law_associativity,
    _law_order_and_symbol,
    _law_graded_order,
    _law_a1,
    _law_ring_map,
    _law_quasi_elliptic,
    _law_precision,
    _law_reassembly,
    _law_module_action,
    _law_normalized_examples,
)


def run_property_suite(
    trials: int = 500, seed: int = 42, x_precision: int = 12, d_bound: int = 6
) -> List[CheckEntry]:
    """Generic-point and constructed checks of the ring and order calculus.

    Each law in _LAWS maps (rng, T, basis) to its entries, with
    basis = _monomial_basis(T); the laws run in order off one Random(seed),
    so a law that draws starts where the last one stopped.  No law samples:
    associativity, the substitution ring map and its commutators, A1 closure
    and quasi-ellipticity under shears are decided at one generic point
    each; order and symbol, precision soundness and component reassembly run
    over basis, the first two off one shared pass over its pairs
    (_basis_pair_counts), and the graded order and ht_2 over the monomials
    of _graded_monic_span.  trials and d_bound are only validated: no entry
    depends on either.
    """
    _require_int("trials", trials, 1)
    _require_int("seed", seed, 0)  # as in normalized_shape_preserved_under_special_change
    _require_int("d_bound", d_bound, 0)
    _require_int("x_precision", x_precision)
    if x_precision < 10:  # 3 d_bound + 2 (top x-degree) of a basis operator
        raise PrecisionError(
            f"the property suite needs x_precision >= 10, got {x_precision}: a product of two "
            "basis operators has precision T - 2, derivative bound 4 and order >= -4, so "
            "its order is decidable for every such product only when T >= 10"
        )
    rng, basis = Random(seed), _monomial_basis(x_precision)
    return [entry for law in _LAWS for entry in law(rng, x_precision, basis)]
