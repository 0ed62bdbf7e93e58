"""Truncated model of the completed ring of partial differential operators.

Operators are finite rational combinations of x1^i1 x2^i2 d1^k1 d2^k2 with
two explicit budgets: x_precision T (coefficients are only trusted below
total x-degree T) and d_bound (the maximal stored derivative degree).
Multiplication is the exact Leibniz product followed by a conservative
precision debit, so every emitted term is reliable.  An operator stores
integer numerators over one positive denominator, reduced so that their gcd
is 1; that form is canonical, so equality compares it directly, and every
kernel works on plain ints.  Fraction appears only at the boundary: the
public constructor and parse_operator take Fraction coefficients, and the
coeffs view, to_string and spectral_module_action give them back.  On top
of the ring live two order functions (bold_ord and ord_gamma), the symbol
calculus, the growth condition A1(m), quasi-ellipticity and normalization
predicates, linear changes of variables, and the residue-module action.
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

from .report import CheckEntry, check

Key = Tuple[int, int, int, int]
Form = Dict[Tuple[int, int], int]  # two-symbol polynomial by exponent pair, integer numerators

NEG_INF = float("-inf")


class PrecisionError(ArithmeticError):
    """The requested operation would exhaust the x-precision budget."""


class UndecidableOrderError(ArithmeticError):
    """Terms beyond the truncation frontier could change the answer."""


def _refuse_floats(*vals) -> None:
    """Raise TypeError on a float: it is a binary approximation, not the exact value meant."""
    for v in vals:
        if isinstance(v, float):
            raise TypeError(f"float {v!r} is not exact; pass an int or a Fraction")


class _FractionView(Mapping):
    """Read-only Fraction view of integer numerators over one denominator."""

    __slots__ = ("_num", "_den")

    def __init__(self, num: Dict[Key, int], den: int):
        self._num = num
        self._den = den

    def __getitem__(self, key: Key) -> Fraction:
        return Fraction(self._num[key], self._den)

    def __iter__(self):
        return iter(self._num)

    def __len__(self) -> int:
        return len(self._num)


class TruncatedOperator:
    """Immutable operator: integer numerators over one denominator, x-precision, d-bound.

    num maps each key to a nonzero integer and den > 0 with
    gcd(den, *num.values()) == 1, so (num, den) is canonical: equal
    operators have equal (num, den).  coeffs is the Fraction view of it.
    """

    __slots__ = ("num", "den", "x_precision", "d_bound")

    def __init__(
        self,
        coeffs: Mapping[Key, object],
        x_precision: int,
        d_bound: Optional[int] = None,
    ):
        if x_precision < 1:
            raise ValueError("x_precision must be at least 1")
        clean: Dict[Key, Fraction] = {}
        for key, val in coeffs.items():
            i1, i2, k1, k2 = key
            if any(type(e) is not int for e in key):
                raise TypeError(f"exponents must be ints, got {key!r}")
            if min(i1, i2, k1, k2) < 0:
                raise ValueError(f"negative exponent in {key}")
            _refuse_floats(val)
            val = Fraction(val)
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
        return cls({(0, 0, 0, 0): Fraction(1)}, x_precision)

    @classmethod
    def monomial(cls, key: Key, x_precision: int) -> "TruncatedOperator":
        return cls({key: Fraction(1)}, x_precision)

    @property
    def coeffs(self) -> Mapping[Key, Fraction]:
        return _FractionView(self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def truncate(self, x_precision: int) -> "TruncatedOperator":
        """Forget everything at or above the given x-degree."""
        if x_precision < 1:
            raise ValueError("x_precision must be at least 1")
        if x_precision >= self.x_precision:
            return self  # every stored term is already below it
        return TruncatedOperator._trusted(
            {k: n for k, n in self.num.items() if k[0] + k[1] < x_precision},
            self.den,
            x_precision,
            self.d_bound,
        )

    def scale(self, c) -> "TruncatedOperator":
        _refuse_floats(c)
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


# one entry per (derivative degree, x-degree) pair met, so as small as the operators
@functools.lru_cache(maxsize=None)
def _leibniz_weights(k: int, j: int) -> Tuple[Tuple[int, int], ...]:
    """(m, comb(k, m) * perm(j, m)) for m = 0 .. min(k, j).

    These are the weights of d^k x^j = sum over m of w_m x^(j-m) d^(k-m).
    """
    return tuple((m, math.comb(k, m) * math.perm(j, m)) for m in range(min(k, j) + 1))


def _integer_form(form: Mapping) -> Tuple[dict, int]:
    """(same keys with integer numerators, their common denominator) of a Fraction map."""
    den = math.lcm(*(v.denominator for v in form.values()))
    return {k: v.numerator * (den // v.denominator) for k, v in form.items()}, den


def op_mul(P: TruncatedOperator, Q: TruncatedOperator) -> TruncatedOperator:
    """Leibniz product with a conservative precision debit.

    Each derivative of the left factor may consume one reliable x-degree of
    the right factor's coefficients, so the result is trusted only below
    min(T_P, T_Q) - d_P.  The declared derivative bound adds.  Terms at or
    beyond that x-degree are never formed.
    """
    t_res = min(P.x_precision, Q.x_precision) - P.d_bound
    if t_res < 1:
        raise PrecisionError(
            f"budget exhausted: min precision {min(P.x_precision, Q.x_precision)} "
            f"minus left derivative bound {P.d_bound} leaves {t_res}"
        )
    acc: Dict[Key, int] = {}
    q_terms = list(Q.num.items())
    for (i1, i2, k1, k2), a in P.num.items():
        for (j1, j2, l1, l2), b in q_terms:
            # the term's x-degree is i1 + i2 + j1 + j2 - m1 - m2, kept below t_res
            over = i1 + i2 + j1 + j2 - t_res
            if not (k1 and j1 or k2 and j2):
                # no derivative meets its own variable: the only term is m1 = m2 = 0
                if over < 0:
                    key = (i1 + j1, i2 + j2, k1 + l1, k2 + l2)
                    acc[key] = acc.get(key, 0) + a * b
                continue
            ab = a * b
            w2 = _leibniz_weights(k2, j2)
            for m1, c1 in _leibniz_weights(k1, j1):
                abc = ab * c1
                for m2, c2 in w2:
                    if m1 + m2 <= over:
                        continue
                    key = (i1 + j1 - m1, i2 + j2 - m2, k1 - m1 + l1, k2 - m2 + l2)
                    acc[key] = acc.get(key, 0) + abc * c2
    return TruncatedOperator._trusted(
        {k: n for k, n in acc.items() if n},
        P.den * Q.den,
        t_res,
        P.d_bound + Q.d_bound,
    )


def bold_ord(P: TruncatedOperator):
    """sup over terms of (derivative degree - x-degree); -inf for zero.

    An unseen term hides at x-degree >= T with derivative degree <= d_bound,
    so it can contribute at most d_bound - T.  If every stored term sits
    strictly below that frontier the supremum is undecidable at this budget.
    """
    if not P.num:
        return NEG_INF
    sup = max(k1 + k2 - i1 - i2 for (i1, i2, k1, k2) in P.num)
    if sup < P.d_bound - P.x_precision:
        raise UndecidableOrderError(
            f"stored supremum {sup} is below the truncation frontier "
            f"{P.d_bound - P.x_precision}"
        )
    return sup


def homogeneous_component(P: TruncatedOperator, m: int) -> TruncatedOperator:
    """Terms with (x-degree) - (derivative degree) equal to m."""
    return TruncatedOperator._trusted(
        {
            k: n
            for k, n in P.num.items()
            if (k[0] + k[1]) - (k[2] + k[3]) == m
        },
        P.den,
        P.x_precision,
        P.d_bound,
    )


def symbol(P: TruncatedOperator) -> TruncatedOperator:
    """The homogeneous component of P at grade -ord(P), which is +inf (so zero) for P = 0."""
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
@functools.lru_cache(maxsize=16)
def _substitution_images(a, b, c, d, e) -> Tuple[Tuple[Form, int], ...]:
    """Images of x1, x2 (forms on x1, x2) and of d1, d2 (forms on d1, d2).

    Each is (integer numerators, denominator); the key (0, 0) is the
    constant.  The forms are shared between calls and must not be mutated.
    """
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
    """
    # here, not in the cached builder: a hit there takes 0.5 for a cached Fraction(1, 2)
    _refuse_floats(a, b, c, d, e)
    images = _substitution_images(a, b, c, d, e)
    powers = [
        _powers(form, max((key[slot] for key in P.num), default=0))
        for slot, (form, _) in enumerate(images)
    ]
    terms = []
    for key, num in P.num.items():
        den = P.den
        for (_, img_den), n in zip(images, key):
            den *= img_den**n
        terms.append((key, num, den))
    common = math.lcm(*(den for _, _, den in terms))
    acc: Dict[Key, int] = {}
    for (i1, i2, k1, k2), num, den in terms:
        scale = num * (common // den)
        ds = _convolve(powers[2][k1], powers[3][k2])
        for (xi1, xi2), xv in _convolve(powers[0][i1], powers[1][i2]).items():
            sx = scale * xv
            for (dk1, dk2), dv in ds.items():
                key = (xi1, xi2, dk1, dk2)
                acc[key] = acc.get(key, 0) + sx * dv
    return TruncatedOperator._trusted(
        {k: n for k, n in acc.items() if n},
        common,
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
    by P, then kill every term with positive x-degree.
    """
    p1, p2 = monomial
    if p1 < 0 or p2 < 0:
        raise ValueError("monomial exponents must be non-negative")
    cls = TruncatedOperator._trusted({(0, 0, p1, p2): 1}, 1, P.x_precision, p1 + p2)
    prod = op_mul(cls, P)
    return {
        (k1, k2): Fraction(n, prod.den)
        for (i1, i2, k1, k2), n in prod.num.items()
        if i1 == 0 and i2 == 0
    }


_FACTOR_RE = re.compile(r"(x1|x2|d1|d2)(?:\^(\d+))?")
_COEF_RE = re.compile(r"^(\d+(?:/\d+)?)")
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
    """Parse the term grammar `coef x1^i1 x2^i2 d1^k1 d2^k2` joined by +/-."""
    compact = "".join(text.split())
    acc: Dict[Key, Fraction] = {}
    for n, raw in enumerate(compact.replace("-", "+-").split("+")):
        if not raw:
            if n:  # past the first, an empty piece is a sign with no term after it
                raise ValueError(f"dangling sign in {text!r}")
            continue
        sign = Fraction(1)
        if raw.startswith("-"):
            sign = Fraction(-1)
            raw = raw[1:]
        if not raw:
            raise ValueError(f"dangling sign in {text!r}")
        m = _COEF_RE.match(raw)
        coef = sign
        rest = raw
        if m:
            try:
                coef *= Fraction(m.group(1))
            except ZeroDivisionError:
                raise ValueError(f"zero denominator in term {raw!r} of {text!r}") from None
            rest = raw[m.end() :]
        exps = [0, 0, 0, 0]
        pos = 0
        while pos < len(rest):
            fm = _FACTOR_RE.match(rest, pos)
            if not fm:
                raise ValueError(f"cannot parse {rest[pos:]!r} in {text!r}")
            slot = _SLOT[fm.group(1)]
            # d1 x1 = x1 d1 + 1, so a term with x after d is not one monomial
            if slot < 2 and exps[2] + exps[3]:
                raise ValueError(f"x-factor after a d-factor in term {raw!r} of {text!r}")
            exps[slot] += int(fm.group(2) or 1)
            pos = fm.end()
        key = tuple(exps)
        acc[key] = acc.get(key, Fraction(0)) + coef
    return TruncatedOperator(acc, x_precision, d_bound)


# random coefficients draw from these, as rng.choice over the same sequence
_NONZERO_3 = (-3, -2, -1, 1, 2, 3)
_NONZERO_2 = (-2, -1, 1, 2)


def _from_pairs(
    pairs: Dict[Key, Tuple[int, int]], x_precision: int, d_bound: int
) -> TruncatedOperator:
    """Operator from (nonzero numerator, positive denominator) pairs.

    Keys at or beyond x-degree x_precision are dropped, as the public
    constructor would; derivative degrees must already be within d_bound.
    """
    pairs = {k: nd for k, nd in pairs.items() if k[0] + k[1] < x_precision}
    den = math.lcm(*(d for _, d in pairs.values()))
    return TruncatedOperator._trusted(
        {k: n * (den // d) for k, (n, d) in pairs.items()}, den, x_precision, d_bound
    )


def random_operator(rng: Random, x_precision: int) -> TruncatedOperator:
    """Random nonzero operator: 1-4 terms, x-degree and d-degree at most 2."""
    pairs: Dict[Key, Tuple[int, int]] = {}
    for _ in range(rng.randint(1, 4)):
        i1 = rng.randint(0, 2)
        i2 = rng.randint(0, 2 - i1)
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        num = rng.choice(_NONZERO_3)
        pairs[(i1, i2, k1, k2)] = (num, rng.randint(1, 3))
    op = _from_pairs(pairs, x_precision, 2)
    if op.is_zero:
        return TruncatedOperator.one(x_precision)
    return op


def _random_operator_basis(x_precision: int) -> List[TruncatedOperator]:
    """The operators every random_operator draw is built from.

    The 36 monomials x1^i1 x2^i2 d1^k1 d2^k2 with i1 + i2 <= 2 and
    k1 + k2 <= 2 (those of x-degree below x_precision) at d_bound 2, whose
    rational combinations are its nonzero draws, then one(x_precision), its
    d_bound-0 fallback.
    """
    monomials = [
        TruncatedOperator._trusted({key: 1}, 1, x_precision, 2)
        for key in itertools.product(range(3), repeat=4)
        if key[0] + key[1] <= 2 and key[2] + key[3] <= 2 and key[0] + key[1] < x_precision
    ]
    return monomials + [TruncatedOperator.one(x_precision)]


# Schwartz-Zippel: a nonzero polynomial of total degree D vanishes at a point
# drawn uniformly from S^n with probability at most D/|S|; here S = [1, 2^64)
_GENERIC_BOUND = 2**64


def _generic_operator(rng: Random, basis: List[TruncatedOperator]) -> TruncatedOperator:
    """One dense operator: each of the 36 monomials of basis gets a coefficient from [1, 2^64).

    basis is _random_operator_basis(T), whose last operator, the one(T)
    fallback, random_operator never returns for T >= 3.  The budgets are
    those of every other draw: x_precision T and d_bound 2.
    """
    *monomials, _ = basis
    num = {key: rng.randrange(1, _GENERIC_BOUND) for B in monomials for key in B.num}
    return TruncatedOperator._trusted(num, 1, monomials[0].x_precision, 2)


def _random_a1_operator(rng: Random, x_precision: int, m: int) -> TruncatedOperator:
    """Random operator satisfying the growth condition at level m."""
    pairs: Dict[Key, Tuple[int, int]] = {}
    for _ in range(rng.randint(1, 4)):
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        lo = max(k1 + k2 - m, 0)
        i1 = rng.randint(lo, lo + 2)
        i2 = rng.randint(0, 2)
        num = rng.choice(_NONZERO_3)
        pairs[(i1, i2, k1, k2)] = (num, rng.randint(1, 3))
    op = _from_pairs(pairs, x_precision, 2)
    return op if not op.is_zero else TruncatedOperator.one(x_precision)


def _random_graded_monic(rng: Random, x_precision: int) -> TruncatedOperator:
    """Monic operator with a constant top d2-coefficient and random tail."""
    k = rng.randint(0, 2)
    l = rng.randint(1, 2)
    pairs: Dict[Key, Tuple[int, int]] = {(0, 0, k, l): (1, 1)}
    for _ in range(rng.randint(0, 3)):
        k2 = rng.randint(0, l - 1)
        k1 = rng.randint(0, 2)
        i1 = rng.randint(0, 2)
        i2 = rng.randint(0, 2 - i1)
        num = rng.choice(_NONZERO_3)
        pairs[(i1, i2, k1, k2)] = (num, rng.randint(1, 3))
    return _from_pairs(pairs, x_precision, max(k + l, 4))


def _monic_with_tail(rng: Random, top: Key, s_max: int, x_precision: int):
    """top plus 0-3 random terms of d2-degree <= s_max; d_bound is top[3] + 2."""
    pairs: Dict[Key, Tuple[int, int]] = {top: (1, 1)}
    for _ in range(rng.randint(0, 3)):
        s = rng.randint(0, s_max)
        key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), s)
        pairs[key] = (rng.choice(_NONZERO_2), 1)
    return _from_pairs(pairs, x_precision, top[3] + 2)


def _random_normalized_pair(rng: Random, x_precision: int):
    """Pair matching the normalized shape with random admissible tails."""
    k = rng.randint(2, 3)
    l = rng.randint(1, 2)
    P = _monic_with_tail(rng, (0, 0, 0, k), k - 2, x_precision)
    Q = _monic_with_tail(rng, (0, 0, 1, l), l - 1, x_precision)
    return P, Q


def _sheared_normalized_pairs(rng: Random, x_precision: int, count: int):
    """count random normalized pairs, each after a shear with c != 0."""
    for _ in range(count):
        P, Q = _random_normalized_pair(rng, x_precision)
        b = rng.randint(-2, 2)
        c = rng.choice(_NONZERO_2)
        d = rng.randint(-2, 2)
        yield special_change(P, b, c, d), special_change(Q, b, c, d)


def normalized_shape_preserved_under_special_change(
    trials: int = 50, seed: int = 42, x_precision: int = 12
) -> bool:
    """Does a normalized pair stay normalized under every shear change?

    Checked by direct substitution on randomized normalized pairs with
    random nonzero shear parameters.  Returns True only if the shape
    survives in every trial.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    pairs = _sheared_normalized_pairs(Random(seed), x_precision, trials)
    return all(is_normalized_pair(P, Q) for P, Q in pairs)


def _agree(A: TruncatedOperator, B: TruncatedOperator) -> bool:
    """Same terms below the common x-precision of A and B."""
    t = min(A.x_precision, B.x_precision)
    return A.truncate(t) == B.truncate(t)


def _law_relations(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
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


def _law_associativity(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    # With both budgets fixed op_mul is bilinear and truncate linear, so each
    # coefficient of (PQ)R - P(QR) is a trilinear polynomial in the 108
    # coefficients of P, Q and R on the basis; one generic triple decides it.
    P, Q, R = (_generic_operator(rng, basis) for _ in range(3))
    return [
        check(
            "pdo.associativity",
            "(PQ)R = P(QR) on one generic triple, miss probability <= 3/(2^64 - 1)",
            0,
            int(not _agree(op_mul(op_mul(P, Q), R), op_mul(P, op_mul(Q, R)))),
            "derived",
        )
    ]


def _law_order_and_symbol(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    # order and symbol are not multilinear, so they stay sampled
    sub_fail = eq_fail = sym_fail = eq_seen = 0
    for _ in range(trials):
        P = random_operator(rng, T)
        Q = random_operator(rng, T)
        prod = op_mul(P, Q)
        bo = bold_ord(prod)
        total = bold_ord(P) + bold_ord(Q)
        if bo > total:
            sub_fail += 1
        ss = op_mul(symbol(P), symbol(Q))
        if not ss.is_zero:
            eq_seen += 1
            if bo != total:
                eq_fail += 1
            if not _agree(symbol(prod), ss):
                sym_fail += 1
    # strict drop at the truncation frontier: both symbols are pure
    # x-monomials whose product falls outside every trusted window
    hp = TruncatedOperator.monomial((T - 1, 0, 0, 0), T)
    hq = TruncatedOperator.monomial((0, T - 1, 0, 0), T)
    return [
        check("pdo.order_subadditive", "ord(PQ) <= ord(P) + ord(Q)", 0, sub_fail, "derived"),
        check(
            "pdo.order_additive_nonzero_symbols",
            f"equality branch hit {eq_seen} times",
            0,
            eq_fail,
            "derived",
        ),
        check(
            "pdo.symbol_multiplicative",
            "sigma(PQ) = sigma(P) sigma(Q) when nonzero",
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


def _law_graded_order(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    gamma_fail = ht_fail = 0
    for _ in range(trials):
        P = _random_graded_monic(rng, T)
        Q = _random_graded_monic(rng, T)
        prod = op_mul(P, Q)
        kp, lp = ord_gamma(P)
        kq, lq = ord_gamma(Q)
        if ord_gamma(prod) != (kp + kq, lp + lq):
            gamma_fail += 1
        if not _agree(ht_2(prod), op_mul(ht_2(P), ht_2(Q))):
            ht_fail += 1
    return [
        check(
            "pdo.gamma_order_additive",
            "graded order adds on monic-leading pairs",
            0,
            gamma_fail,
            "derived",
        ),
        check(
            "pdo.highest_term_multiplicative", "top d2-coefficients multiply", 0, ht_fail, "derived"
        ),
    ]


def _law_a1(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    a1_fail = 0
    for _ in range(trials):
        m1, m2 = rng.randint(0, 2), rng.randint(0, 2)
        P = _random_a1_operator(rng, T, m1)
        Q = _random_a1_operator(rng, T, m2)
        if not a1_check(op_mul(P, Q), m1 + m2):
            a1_fail += 1
    return [
        check("pdo.a1_closure", "growth levels add under multiplication", 0, a1_fail, "derived")
    ]


def _law_ring_map(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    # The ring-map defect is a polynomial once powers of a and e are cleared.
    # A term x1^i1 x2^i2 d^k (i = i1 + i2) maps to N / (a^i e^i1), where N has
    # degree i1 + k in a..e.  PQ has i, k <= 4, so a^4 e^4 phi(PQ) has degree
    # at most 8 + k - i <= 12 in a..e; P and Q have i, k <= 2, so a^2 e^2
    # phi(P) has degree at most 4 + k - i <= 6, and their product <= 12.  With
    # degree 2 in the coefficients of P and Q, D = 14.  Each commutator defect,
    # times a e, has degree 2 in a..e.
    params = [rng.randrange(1, _GENERIC_BOUND) for _ in range(5)]
    P, Q = _generic_operator(rng, basis), _generic_operator(rng, basis)
    lhs = change_variables(op_mul(P, Q), *params)
    rhs = op_mul(change_variables(P, *params), change_variables(Q, *params))
    imgs = [
        change_variables(TruncatedOperator.monomial(key, T), *params)
        for key in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    # equality compares terms only, so one(T) and zero(T) serve at every precision
    one, zero = TruncatedOperator.one(T), TruncatedOperator.zero(T)
    comm_fail = sum(
        op_mul(imgs[di], imgs[xj]) - op_mul(imgs[xj], imgs[di]) != (one if di - 2 == xj else zero)
        for di in (2, 3)
        for xj in (0, 1)
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


def _law_quasi_elliptic(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    qe_fail = sum(
        not is_quasi_elliptic_pair(P, Q)
        for P, Q in _sheared_normalized_pairs(rng, T, max(trials // 5, 20))
    )
    return [
        check(
            "pdo.quasi_elliptic_preserved",
            "shear changes keep pairs quasi-elliptic",
            0,
            qe_fail,
            "derived",
        )
    ]


def _law_precision(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    # Once both precisions and the left d_bound are fixed, op_mul is bilinear
    # and truncate linear, so agreement on every ordered pair of basis
    # operators proves it for every pair random_operator can draw.
    high_basis = [TruncatedOperator._trusted(B.num, B.den, T + 6, B.d_bound) for B in basis]
    prec_fail = 0
    for P, hi_p in zip(basis, high_basis):
        for Q, hi_q in zip(basis, high_basis):
            low = op_mul(P, Q)
            if op_mul(hi_p, hi_q).truncate(low.x_precision) != low:
                prec_fail += 1
    return [
        check(
            "pdo.precision_soundness",
            "higher budgets refine, never contradict",
            0,
            prec_fail,
            "derived",
        )
    ]


def _law_reassembly(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
    # Each basis operator is one term of one grade g, and random_operator's
    # draws reach only grades -2..2. homogeneous_component is linear in P, so
    # if it keeps each basis operator at m == g and drops it at every other m,
    # the components of any draw over its grades hold each of its terms once
    # and sum back to it. A failure counts one (operator, m) pair.
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


def _law_module_action(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
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


def _law_normalized_examples(rng: Random, T: int, trials: int, basis) -> List[CheckEntry]:
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
    """Randomized, generic-point and constructed checks of the ring and order calculus.

    Each law in _LAWS maps (rng, T, trials, basis) to its entries, with
    basis = _random_operator_basis(T); the laws run in order off one
    Random(seed), so a law that draws starts where the last one stopped.
    trials sizes the sampled loops.  Associativity, the substitution ring
    map and its commutators are decided at one generic point each;
    precision soundness and component reassembly run over basis.  d_bound
    is only recorded: every generator fixes its own derivative bound.
    """
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    if x_precision < 10:  # 3 d_bound + 2 (top x-degree) of a draw; below it, draws decide
        raise PrecisionError(
            f"the property suite needs x_precision >= 10, got {x_precision}: a product of two "
            "random operators has precision T - 2, derivative bound 4 and order >= -4, so "
            "its order is decidable for every draw only when T >= 10"
        )
    rng, basis = Random(seed), _random_operator_basis(x_precision)
    return [entry for law in _LAWS for entry in law(rng, x_precision, trials, basis)]
