"""Truncated operator ring: product, orders, symbols, substitutions."""

import itertools
import json
import math
import re
from decimal import Decimal
from fractions import Fraction
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from godeaux_cert import pdo_algebra as pa
from godeaux_cert.report import VerificationReport

T = 12


def op(text, precision=T, d_bound=None):
    return pa.parse_operator(text, precision, d_bound)


def test_constructor_drops_zero_and_overflow_terms():
    o = pa.TruncatedOperator({(0, 0, 0, 0): 0, (5, 0, 0, 0): 1}, 4)
    assert o.is_zero  # x-degree 5 is beyond precision 4


def test_constructor_validates():
    with pytest.raises(ValueError):
        pa.TruncatedOperator({}, 0)
    with pytest.raises(ValueError):
        pa.TruncatedOperator({(0, 0, -1, 0): 1}, 4)
    with pytest.raises(ValueError):
        pa.TruncatedOperator({(0, 0, 3, 0): 1}, 4, d_bound=2)


def test_constructor_refuses_non_int_exponents():
    for e in (1.5, Fraction(1), True):
        with pytest.raises(TypeError, match="exponents must be ints"):
            pa.TruncatedOperator({(e, 0, 0, 0): 1}, T)


def test_budgets_refuse_float_or_bool():
    """A float budget rides into products: 12.0 would multiply to x_precision 11.0."""
    for x_precision in (12.0, True):
        with pytest.raises(TypeError, match="x_precision must be an int"):
            pa.TruncatedOperator({(0, 0, 1, 0): 1}, x_precision)
        with pytest.raises(TypeError, match="x_precision must be an int"):
            op("x1 d1").truncate(x_precision)
    for d_bound in (6.0, True):
        with pytest.raises(TypeError, match="d_bound must be an int"):
            pa.TruncatedOperator({(0, 0, 1, 0): 1}, T, d_bound)


# a float is a binary approximation; a str or a Decimal was read as the number it spells
INEXACT = (0.5, "1/2", Decimal("0.5"))


def test_constructor_refuses_floats():
    for val in INEXACT:
        want = f"coefficient must be an int or Fraction, got {type(val).__name__}"
        with pytest.raises(TypeError, match=want):
            pa.TruncatedOperator({(0, 0, 1, 0): val}, 5)
    exact = pa.TruncatedOperator({(0, 0, 1, 0): Fraction(1, 10)}, 5)
    assert exact.coeffs[(0, 0, 1, 0)] == Fraction(1, 10)


def test_coeffs_is_a_fresh_dict():
    """Each read builds a new Fraction dict; changing it leaves the operator as it was."""
    text = "1/2 x1 d1 - 3 x2^2 + 2/3 d2"
    P, twin = op(text), op(text)
    first, second = P.coeffs, P.coeffs
    assert type(first) is dict and first == second and first is not second
    assert first == {key: Fraction(n, P.den) for key, n in P.num.items()}
    num, h = dict(P.num), hash(P)
    first[(0, 0, 0, 0)] = Fraction(5)
    first[(1, 0, 1, 0)] = Fraction(7)
    del first[(0, 2, 0, 0)]
    assert P.num == num and P == twin and hash(P) == h
    assert pa.to_string(P) == pa.to_string(twin) == "2/3 d2 - 3 x2^2 + 1/2 x1 d1"
    assert P.coeffs == second


def test_scale_refuses_floats():
    for val in INEXACT:
        want = f"scale must be an int or Fraction, got {type(val).__name__}"
        with pytest.raises(TypeError, match=want):
            op("d1").scale(val)
    assert op("d1").scale(Fraction(1, 10)) == op("1/10 d1")


def test_change_variables_refuses_floats():
    P = op("x1 d2")
    # the substitution cache is typed, so a hit on Fraction(1, 2) cannot let 0.5 through
    half = pa.change_variables(P, Fraction(1, 2), 0, 0, 0, 1)
    for val in INEXACT:
        kind = type(val).__name__
        with pytest.raises(TypeError, match=f"a must be an int or Fraction, got {kind}"):
            pa.change_variables(P, val, 0, 0, 0, 1)
        with pytest.raises(TypeError, match=f"c must be an int or Fraction, got {kind}"):
            pa.special_change(P, 0, val, 0)
    assert pa.change_variables(P, Fraction(1, 2), 0, 0, 0, 1) == half
    # equal values of the two exact types give the same image
    assert pa.change_variables(P, Fraction(2), 0, 0, 0, 1) == pa.change_variables(P, 2, 0, 0, 0, 1)


def test_bool_coefficients_are_refused():
    """True is a truth value, not the coefficient 1, in every public entry point."""
    for flag in (True, False):
        with pytest.raises(TypeError, match="bool"):
            pa.TruncatedOperator({(0, 0, 0, 0): flag}, 5)
        with pytest.raises(TypeError, match="bool"):
            op("d1").scale(flag)
        with pytest.raises(TypeError, match="bool"):
            pa.change_variables(op("x1 d2"), flag, 0, 0, 0, 1)
        with pytest.raises(TypeError, match="bool"):
            pa.special_change(op("x1 d2"), 0, flag, 0)
    # the substitution cache holds the key 1 now; True must still be refused
    assert pa.change_variables(op("x1 d2"), 1, 0, 0, 0, 1) == op("x1 d2")
    with pytest.raises(TypeError, match="bool"):
        pa.change_variables(op("x1 d2"), True, 0, 0, 0, 1)


def test_defining_relation():
    d1, x1 = op("d1"), op("x1")
    assert d1 * x1 - x1 * d1 == pa.TruncatedOperator.one(T - 1)


def test_euler_operator_square():
    e = op("x1 d1")
    assert e * e == op("x1^2 d1^2 + x1 d1")


def test_mixed_leibniz_example():
    # d1^2 x1 = x1 d1^2 + 2 d1
    assert op("d1^2") * op("x1") == op("x1 d1^2 + 2 d1")
    # d2 x2^2 = x2^2 d2 + 2 x2
    assert op("d2") * op("x2^2") == op("x2^2 d2 + 2 x2")


def test_precision_debit():
    P = op("d1^2", d_bound=2)
    Q = op("x1")
    assert (P * Q).x_precision == T - 2
    assert (Q * P).x_precision == T  # left factor has no derivatives


def test_precision_exhaustion():
    P = pa.TruncatedOperator({(0, 0, 3, 0): 1}, 3)
    with pytest.raises(pa.PrecisionError):
        pa.op_mul(P, P)


def test_bold_ord_examples():
    assert pa.bold_ord(op("d1")) == 1
    assert pa.bold_ord(op("x1 d1")) == 0
    assert pa.bold_ord(op("x1^2 d1 d2")) == 0
    assert pa.bold_ord(pa.TruncatedOperator.zero(T)) == pa.NEG_INF


def test_bold_ord_undecidable_at_tight_budget():
    # declared derivative bound 2 with precision 3: a hidden term x^3 d^2
    # would have order -1, above the stored supremum -2
    P = pa.TruncatedOperator({(2, 0, 0, 0): 1}, x_precision=3, d_bound=2)
    with pytest.raises(pa.UndecidableOrderError):
        pa.bold_ord(P)


def test_symbol_examples():
    assert pa.symbol(op("d2^2 + x1 d1")) == op("d2^2")
    homog = op("x1 d1 + x2 d2")
    assert pa.symbol(homog) == homog
    for x_precision in (1, 12):
        S = pa.symbol(pa.TruncatedOperator.zero(x_precision))
        assert S.is_zero and (S.x_precision, S.d_bound) == (x_precision, 0)


def test_symbol_of_a_basis_monomial_is_the_monomial_itself():
    """A homogeneous operator is its own symbol and its own component at its
    grade: the very object, not a rebuilt copy."""
    for x_precision in (10, 12, 16):
        for M in pa._monomial_basis(x_precision):
            ((i1, i2, k1, k2),) = M.num
            assert pa.symbol(M) is M
            assert pa.homogeneous_component(M, i1 + i2 - k1 - k2) is M


def test_component_reassembly():
    rng = Random(7)
    for _ in range(50):
        P = _fraction_random_operator(rng, T)
        grades = {(k[0] + k[1]) - (k[2] + k[3]) for k in P.coeffs}
        total = pa.TruncatedOperator.zero(T)
        for m in grades:
            total = total + pa.homogeneous_component(P, m)
        assert total == P


def test_gamma_order_and_highest_term():
    assert pa.ord_gamma(op("d1 d2^3")) == (1, 3)
    assert pa.ord_gamma(op("d2^4")) == (0, 4)
    assert pa.ord_gamma(op("d1 d2^3 + d2^4")) == (0, 4)
    assert pa.ht_2(op("d1 d2^2 + x1 d2")) == op("d1")
    assert pa.is_monic(op("d1 d2"))
    assert pa.is_monic(op("d2^3"))
    assert not pa.is_monic(op("x1 d1 d2"))
    with pytest.raises(ValueError):
        pa.ord_gamma(pa.TruncatedOperator.zero(T))


def test_a1_check():
    assert pa.a1_check(op("x1^2 d1 d2"), 0)
    assert not pa.a1_check(op("d1 d2"), 1)
    assert pa.a1_check(op("d1 d2"), 2)


@pytest.mark.parametrize("m", [True, 1.0, "1", Fraction(1)])
def test_level_and_grade_refuse_a_non_int(m):
    """True was read as level or grade 1, and 1.0 ran on as a float."""
    P = op("x1^2 d1 + x1 d1^2")
    for func in (pa.a1_check, pa.homogeneous_component):
        with pytest.raises(TypeError, match=re.escape(f"m must be an int, got {m!r}")):
            func(P, m)


def test_pair_predicates():
    P, Q = op("d2^2"), op("d1 d2")
    assert pa.is_quasi_elliptic_pair(P, Q)
    assert pa.is_one_quasi_elliptic_pair(P, Q)
    assert pa.is_normalized_pair(P, Q)
    # sub-top derivative term breaks normalization but not quasi-ellipticity
    P2 = op("d2^2 + d2")
    assert pa.is_quasi_elliptic_pair(P2, Q)
    assert not pa.is_normalized_pair(P2, Q)
    # non-monic pairs are rejected
    assert not pa.is_quasi_elliptic_pair(op("x1 d2^2"), Q)
    assert not pa.is_quasi_elliptic_pair(P, op("2 d1 d2"))


def test_one_quasi_elliptic_false_branches():
    Q = op("d1 d2")
    # not quasi-elliptic: P is not monic
    assert not pa.is_one_quasi_elliptic_pair(op("x1 d2^2"), Q)
    # quasi-elliptic, but d1^4 breaks A1 at level k + l = 3
    P = op("d2^2 + d1^4")
    assert pa.is_quasi_elliptic_pair(P, Q) and not pa.a1_check(P, 3)
    assert not pa.is_one_quasi_elliptic_pair(P, Q)
    # A1 holds at level 3, but ord(P) = 3 is not k = 2
    P = op("d2^2 + d1^3")
    assert pa.a1_check(P, 3) and pa.bold_ord(P) == 3
    assert not pa.is_one_quasi_elliptic_pair(P, Q)


def test_one_quasi_elliptic_order_arithmetic():
    assert pa.bold_ord(op("d2^2")) == 2
    assert pa.bold_ord(op("d1 d2")) == 2  # = 1 + l with l = 1


def test_change_variables_identity():
    P = op("x1^2 d1 d2 + 3 x2 d2^2")
    assert pa.change_variables(P, 1, 0, 0, 0, 1) == P


def test_change_variables_rejects_singular():
    with pytest.raises(ValueError):
        pa.change_variables(op("d1"), 0, 0, 0, 0, 1)
    with pytest.raises(ValueError):
        pa.change_variables(op("d1"), 1, 0, 0, 0, 0)


def test_special_change_commutators():
    # c = 1, b = d = 0: d2 -> d2 + d1, x1 -> x1 - x2
    gens = {name: op(name) for name in ("x1", "x2", "d1", "d2")}
    img = {k: pa.special_change(v, 0, 1, 0) for k, v in gens.items()}
    assert img["d2"] == op("d2 + d1")
    assert img["x1"] == op("x1 - x2")
    one = pa.TruncatedOperator.one(T - 1)
    zero = pa.TruncatedOperator.zero(T - 1)
    assert img["d2"] * img["x2"] - img["x2"] * img["d2"] == one
    assert img["d2"] * img["x1"] - img["x1"] * img["d2"] == zero
    assert img["d1"] * img["x1"] - img["x1"] * img["d1"] == one


def test_generic_change_commutators():
    params = (2, 1, -1, 3, Fraction(1, 2))
    gens = [op(n) for n in ("x1", "x2", "d1", "d2")]
    img = [pa.change_variables(g, *params) for g in gens]
    for di in (2, 3):
        for xj in (0, 1):
            com = pa.op_mul(img[di], img[xj]) - pa.op_mul(img[xj], img[di])
            want = (
                pa.TruncatedOperator.one(com.x_precision)
                if di - 2 == xj
                else pa.TruncatedOperator.zero(com.x_precision)
            )
            assert com == want


def test_change_variables_matches_generator_products():
    """Oracle: the image of x1^i1 x2^i2 d1^k1 d2^k2 is the product of generator images.

    A ring map is fixed by the generators, so each term's image is rebuilt
    with op_mul from the four generator images alone.
    """
    T40 = 40
    rng = Random(2017)
    keys = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    gens = [pa.TruncatedOperator.monomial(k, T40) for k in keys]
    for _ in range(200):
        P = _fraction_random_operator(rng, T40)
        a, e = (Fraction(rng.choice([-2, -1, 1, 2]), rng.randint(1, 3)) for _ in "ae")
        b, c, d = (Fraction(rng.randint(-2, 2), rng.randint(1, 3)) for _ in "bcd")
        imgs = [pa.change_variables(g, a, b, c, d, e) for g in gens]
        want = pa.TruncatedOperator.zero(T40)
        for exps, coeff in P.coeffs.items():
            term = pa.TruncatedOperator.one(T40)
            for img, n in zip(imgs, exps):
                for _ in range(n):
                    term = pa.op_mul(term, img)
            want = want + term.scale(coeff)
        got = pa.change_variables(P, a, b, c, d, e)
        t = min(got.x_precision, want.x_precision)
        assert got.truncate(t) == want.truncate(t)


def _fraction_op_mul(P, Q):
    """Oracle: the Leibniz product term by term in Fraction arithmetic."""
    t_res = min(P.x_precision, Q.x_precision) - P.d_bound
    if t_res < 1:
        raise pa.PrecisionError(f"budget exhausted: {t_res}")
    acc = {}
    for (i1, i2, k1, k2), a in P.coeffs.items():
        for (j1, j2, l1, l2), b in Q.coeffs.items():
            for m1 in range(min(k1, j1) + 1):
                c1 = math.comb(k1, m1) * math.perm(j1, m1)
                for m2 in range(min(k2, j2) + 1):
                    c = c1 * math.comb(k2, m2) * math.perm(j2, m2)
                    key = (i1 + j1 - m1, i2 + j2 - m2, k1 - m1 + l1, k2 - m2 + l2)
                    acc[key] = acc.get(key, Fraction(0)) + a * b * c
    return pa.TruncatedOperator(acc, t_res, P.d_bound + Q.d_bound)


def _fraction_change_variables(P, a, b, c, d, e):
    """Oracle: substitute each generator factor by factor in Fraction arithmetic."""
    a, b, c, d, e = (Fraction(v) for v in (a, b, c, d, e))
    x1_img = {(1, 0): 1 / e, (0, 1): -c / (a * e)}
    x2_img = {(0, 1): 1 / a}
    d1_img = {(1, 0): e, (0, 0): d}
    d2_img = {(1, 0): c, (0, 1): a, (0, 0): b}

    def times(f, g):
        out = {}
        for (a1, a2), u in f.items():
            for (b1, b2), v in g.items():
                out[(a1 + b1, a2 + b2)] = out.get((a1 + b1, a2 + b2), 0) + u * v
        return out

    acc = {}
    for (i1, i2, k1, k2), coeff in P.coeffs.items():
        xs = {(0, 0): coeff}
        for img in (x1_img,) * i1 + (x2_img,) * i2:
            xs = times(xs, img)
        ds = {(0, 0): Fraction(1)}
        for img in (d1_img,) * k1 + (d2_img,) * k2:
            ds = times(ds, img)
        for (xi1, xi2), xv in xs.items():
            for (dk1, dk2), dv in ds.items():
                key = (xi1, xi2, dk1, dk2)
                acc[key] = acc.get(key, Fraction(0)) + xv * dv
    return pa.TruncatedOperator(acc, P.x_precision, P.d_bound)


_NONZERO_3 = [n for n in range(-3, 4) if n]
_NONZERO_2 = [n for n in range(-2, 3) if n]


def _fraction_random_operator(rng, x_precision):
    """Random operator: 1-4 terms of x- and d-degree at most 2, at budgets (T, 2).

    Its coefficients are n/d with n in +-1..3 and d in 1..3, so from T = 3 it
    is nonzero and a rational combination of _monomial_basis(T).
    """
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i1 = rng.randint(0, 2)
        i2 = rng.randint(0, 2 - i1)
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        num = rng.choice(_NONZERO_3)
        coeffs[(i1, i2, k1, k2)] = Fraction(num, rng.randint(1, 3))
    return pa.TruncatedOperator(coeffs, x_precision, 2)


def _fraction_random_a1_operator(rng, x_precision, m):
    """Random operator of growth level m; its x-degrees reach 6, so it may be zero below T = 7."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        lo = max(k1 + k2 - m, 0)
        i1 = rng.randint(lo, lo + 2)
        i2 = rng.randint(0, 2)
        num = rng.choice(_NONZERO_3)
        coeffs[(i1, i2, k1, k2)] = Fraction(num, rng.randint(1, 3))
    return pa.TruncatedOperator(coeffs, x_precision, 2)


def _fraction_random_graded_monic(rng, x_precision):
    """Monic operator d1^k d2^l (k <= 2, 1 <= l <= 2) plus a random tail below d2-degree l."""
    k = rng.randint(0, 2)
    l = rng.randint(1, 2)
    coeffs = {(0, 0, k, l): Fraction(1)}
    for _ in range(rng.randint(0, 3)):
        k2 = rng.randint(0, l - 1)
        k1 = rng.randint(0, 2)
        i1 = rng.randint(0, 2)
        i2 = rng.randint(0, 2 - i1)
        num = rng.choice(_NONZERO_3)
        coeffs[(i1, i2, k1, k2)] = Fraction(num, rng.randint(1, 3))
    return pa.TruncatedOperator(coeffs, x_precision, max(k + l, 4))


def _fraction_random_normalized_pair(rng, x_precision):
    """Normalized pair (d2^k + tail, d1 d2^l + tail), k in {2, 3} and l in {1, 2}.

    Each tail has 0-3 terms x1^i1 x2^i2 d1^k1 d2^s with i1, i2 <= 2, k1 <= 1
    and s in 0..k-2 for P, 0..l-1 for Q: the span _generic_shear_images covers.
    """
    k = rng.randint(2, 3)
    l = rng.randint(1, 2)
    p_coeffs = {(0, 0, 0, k): Fraction(1)}
    for _ in range(rng.randint(0, 3)):
        s = rng.randint(0, k - 2)
        key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), s)
        p_coeffs[key] = Fraction(rng.choice(_NONZERO_2))
    q_coeffs = {(0, 0, 1, l): Fraction(1)}
    for _ in range(rng.randint(0, 3)):
        s = rng.randint(0, l - 1)
        key = (rng.randint(0, 2), rng.randint(0, 2), rng.randint(0, 1), s)
        q_coeffs[key] = Fraction(rng.choice(_NONZERO_2))
    P = pa.TruncatedOperator(p_coeffs, x_precision, k + 2)
    Q = pa.TruncatedOperator(q_coeffs, x_precision, l + 2)
    return P, Q


def _fraction_sheared_normalized_pairs(rng, x_precision, count):
    """count normalized pairs, each after a shear with b, d in -2..2 and c != 0."""
    for _ in range(count):
        P, Q = _fraction_random_normalized_pair(rng, x_precision)
        b = rng.randint(-2, 2)
        c = rng.choice(_NONZERO_2)
        d = rng.randint(-2, 2)
        yield pa.special_change(P, b, c, d), pa.special_change(Q, b, c, d)


def _randint_law_a1(rng, T, trials):
    """Oracle: the sampled A1 loop the suite used to run, with randint level
    draws and Fraction operators.  Each draw must lie in the 90-monomial span
    of the grade certificate: i1 <= 4, i2 <= 2, k1 + k2 <= 2, grade <= m."""
    fails = 0
    for _ in range(trials):
        m1, m2 = rng.randint(0, 2), rng.randint(0, 2)
        P = _fraction_random_a1_operator(rng, T, m1)
        Q = _fraction_random_a1_operator(rng, T, m2)
        for R, m in ((P, m1), (Q, m2)):
            assert (R.x_precision, R.d_bound) == (T, 2)
            assert all(
                i1 <= 4 and i2 <= 2 and k1 + k2 <= 2 and k1 + k2 - i1 - i2 <= m
                for i1, i2, k1, k2 in R.num
            )
        fails += not pa.a1_check(pa.op_mul(P, Q), m1 + m2)
    return fails


def test_law_a1_matches_randint_oracle():
    """The grade certificate and the 500-pair loop it replaced both read no failure."""
    for seed, x_precision in itertools.product(range(5), (10, 12, 16)):
        assert _run_law(pa._law_a1, seed, x_precision)["pdo.a1_closure"].actual == 0
        assert _randint_law_a1(Random(seed), x_precision, 500) == 0


def test_law_quasi_elliptic_matches_sampled_shear_oracle():
    """The generic-shear certificate and the 100-pair loop it replaced both read no failure."""
    for seed, x_precision in itertools.product(range(5), (10, 12, 16)):
        got = _run_law(pa._law_quasi_elliptic, seed, x_precision)
        assert got["pdo.quasi_elliptic_preserved"].actual == 0
        _, pairs = _old_normalized_shape_loop(100, seed, x_precision)
        assert all(pa.is_quasi_elliptic_pair(P, Q) for P, Q in pairs)


@st.composite
def _operators(draw):
    """Operators with mixed denominators, T in 2..20 and d_bound in 0..6.

    Exponents reach x-degree up to 2T, so the constructor drops some terms.
    """
    T = draw(st.integers(2, 20))
    d_bound = draw(st.integers(0, 6))
    coeffs = {}
    for _ in range(draw(st.integers(0, 6))):
        k1 = draw(st.integers(0, d_bound))
        k2 = draw(st.integers(0, d_bound - k1))
        key = (draw(st.integers(0, T)), draw(st.integers(0, T)), k1, k2)
        coeffs[key] = draw(st.fractions(-9, 9, max_denominator=12))
    return pa.TruncatedOperator(coeffs, T, d_bound)


@given(_operators())
def test_symbol_of_a_difference_to_itself_keeps_budgets(P):
    S = pa.symbol(P - P)
    assert S.is_zero and (S.x_precision, S.d_bound) == (P.x_precision, P.d_bound)


@st.composite
def _graded_operators(draw):
    """_operators(), often with a monic term d1^k d2^l at or above its top d2-degree.

    With l two above the old top, the d2^(l-1) row is empty, so normalized,
    monic and quasi-elliptic shapes all occur as well as their failures.
    """
    P = draw(_operators())
    if draw(st.booleans()):
        top = max((key[3] for key in P.num), default=0)
        key = (0, 0, draw(st.integers(0, 2)), top + draw(st.integers(0, 2)))
        P = pa.TruncatedOperator({**P.coeffs, key: 1}, P.x_precision)
    return P


def _d2_rows(P):
    """{j: A_j} for P = sum over j of A_j d2^j, each A_j a Fraction map on (i1, i2, k1)."""
    rows = {}
    for (i1, i2, k1, k2), v in P.coeffs.items():
        rows.setdefault(k2, {})[(i1, i2, k1)] = v
    return rows


def _plain_ord_gamma(P):
    rows = _d2_rows(P)
    l = max(rows)
    return max(k1 for (_, _, k1) in rows[l]), l


def _plain_is_monic(P):
    """The top d1-part of the top d2-row is exactly d1^k."""
    if P.is_zero:
        return False
    k, l = _plain_ord_gamma(P)
    top = {key: v for key, v in _d2_rows(P)[l].items() if key[2] == k}
    return top == {(0, 0, k): 1}


def _plain_is_quasi_elliptic_pair(P, Q):
    if P.is_zero or Q.is_zero:
        return False
    (kp, lp), (kq, _) = _plain_ord_gamma(P), _plain_ord_gamma(Q)
    return kp == 0 and lp >= 1 and kq == 1 and _plain_is_monic(P) and _plain_is_monic(Q)


def _plain_is_normalized_pair(P, Q):
    """Top d2-row of P is 1 at some k >= 1 and its row k - 1 is empty; top row of Q is d1."""
    if P.is_zero or Q.is_zero:
        return False
    p_rows, q_rows = _d2_rows(P), _d2_rows(Q)
    k = max(p_rows)
    return (
        k >= 1
        and p_rows[k] == {(0, 0, 0): 1}
        and k - 1 not in p_rows
        and q_rows[max(q_rows)] == {(0, 0, 1): 1}
    )


@settings(max_examples=150, deadline=None)
@given(_graded_operators(), _graded_operators())
def test_top_d2_readers_match_plain_definitions(P, Q):
    for R in (P, Q):
        if R.is_zero:
            with pytest.raises(ValueError):
                pa.ord_gamma(R)
            with pytest.raises(ValueError):
                pa.ht_2(R)
            continue
        assert pa.ord_gamma(R) == _plain_ord_gamma(R)
        row = _d2_rows(R)[_plain_ord_gamma(R)[1]]
        ht = pa.ht_2(R)
        assert ht.coeffs == {(i1, i2, k1, 0): v for (i1, i2, k1), v in row.items()}
        assert (ht.x_precision, ht.d_bound) == (R.x_precision, R.d_bound)
        _assert_trusted_invariants(ht)
    assert pa.is_monic(P) == _plain_is_monic(P)
    for A, B in ((P, Q), (Q, P), (P, P)):
        assert pa.is_quasi_elliptic_pair(A, B) == _plain_is_quasi_elliptic_pair(A, B)
        assert pa.is_normalized_pair(A, B) == _plain_is_normalized_pair(A, B)


def test_pair_predicates_match_plain_definitions_on_generated_pairs():
    """Normalized pairs, their shears and graded monic operators: mostly positive cases."""
    rng = Random(5)
    for _ in range(100):
        P, Q = _fraction_random_normalized_pair(rng, T)
        [(P2, Q2)] = _fraction_sheared_normalized_pairs(rng, T, 1)
        M = _fraction_random_graded_monic(rng, T)
        for A, B in ((P, Q), (P2, Q2), (Q, P), (M, Q), (P, M)):
            assert pa.is_monic(A) == _plain_is_monic(A)
            assert pa.is_quasi_elliptic_pair(A, B) == _plain_is_quasi_elliptic_pair(A, B)
            assert pa.is_normalized_pair(A, B) == _plain_is_normalized_pair(A, B)
        assert pa.is_normalized_pair(P, Q) and pa.is_quasi_elliptic_pair(P2, Q2)


def _assert_trusted_invariants(R):
    """What the public constructor would have enforced, and the canonical form."""
    assert all(isinstance(v, Fraction) and v != 0 for v in R.coeffs.values())
    assert all(i1 + i2 < R.x_precision for (i1, i2, _, _) in R.coeffs)
    assert max((k1 + k2 for (_, _, k1, k2) in R.coeffs), default=0) <= R.d_bound
    assert all(type(n) is int and n != 0 for n in R.num.values())
    assert type(R.den) is int and R.den > 0
    assert math.gcd(R.den, *R.num.values()) == 1


def _assert_op_mul_matches_fraction_oracle(P, Q):
    try:
        want = _fraction_op_mul(P, Q)
    except pa.PrecisionError:
        with pytest.raises(pa.PrecisionError):
            pa.op_mul(P, Q)
        return
    got = pa.op_mul(P, Q)
    assert got.coeffs == want.coeffs
    assert (got.x_precision, got.d_bound) == (want.x_precision, want.d_bound)
    _assert_trusted_invariants(got)


@settings(max_examples=300, deadline=None)
@given(_operators(), _operators())
def test_op_mul_matches_fraction_oracle(P, Q):
    _assert_op_mul_matches_fraction_oracle(P, Q)


@st.composite
def _uncontracted_pairs(draw):
    """(P, Q) with k1 j1 = k2 j2 = 0 on every term pair, near the precision edge.

    Per variable, either P holds no derivative in it or Q no power of it, so
    no derivative of P meets its own variable in Q. The precision puts the
    first term pair at over = -1 (kept) or over = 0 (dropped).
    """
    p_no_d = draw(st.tuples(st.booleans(), st.booleans()))
    coeff = st.fractions(-9, 9, max_denominator=12).filter(bool)

    def key(left):
        i1, i2, k1, k2 = (draw(st.integers(0, 3)) for _ in range(4))
        if left:
            return (i1, i2, 0 if p_no_d[0] else k1, 0 if p_no_d[1] else k2)
        return (i1 if p_no_d[0] else 0, i2 if p_no_d[1] else 0, k1, k2)

    p_keys = [key(True) for _ in range(draw(st.integers(1, 4)))]
    q_keys = [key(False) for _ in range(draw(st.integers(1, 4)))]
    d_p = max(k1 + k2 for _, _, k1, k2 in p_keys)
    over = draw(st.sampled_from((-1, 0)))
    # over = (x-degree of the first P term + that of the first Q term) - (T - d_p)
    x_deg = sum(p_keys[0][:2]) + sum(q_keys[0][:2])
    T = max(x_deg - over + d_p, d_p + 1)
    P = pa.TruncatedOperator({k: draw(coeff) for k in p_keys}, T, d_p)
    Q = pa.TruncatedOperator({k: draw(coeff) for k in q_keys}, T + draw(st.integers(0, 2)))
    return P, Q


@settings(max_examples=200, deadline=None)
@given(_uncontracted_pairs())
def test_op_mul_matches_fraction_oracle_on_uncontracted_pairs(pair):
    _assert_op_mul_matches_fraction_oracle(*pair)


# the product kernel packs a key into four fields of b bits, b the bit length of
# max(T_P, T_Q, d_P + d_Q + 1); these precisions sit at and beside powers of two
_EDGE_PRECISIONS = (15, 16, 17, 31, 32, 33)


@st.composite
def _field_width_edge_pairs(draw):
    """(P, Q) whose exponents reach the edges of the product kernel's packed fields.

    d_P + d_Q is a power of two, x-exponents reach T - 1 and derivative
    exponents reach the d_bound, so a product term can fill a field exactly.
    """
    d_sum = draw(st.sampled_from((1, 2, 4, 8, 16)))
    d_p = draw(st.integers(0, d_sum))
    coeff = st.fractions(-9, 9, max_denominator=12).filter(bool)

    def operator(x_precision, d_bound):
        def edge(top):
            return draw(st.one_of(st.just(top), st.just(0), st.integers(0, top)))

        coeffs = {}
        for _ in range(draw(st.integers(1, 5))):
            i1 = edge(x_precision - 1)
            k1 = edge(d_bound)
            coeffs[(i1, edge(x_precision - 1 - i1), k1, edge(d_bound - k1))] = draw(coeff)
        return pa.TruncatedOperator(coeffs, x_precision, d_bound)

    P = operator(draw(st.sampled_from(_EDGE_PRECISIONS)), d_p)
    Q = operator(draw(st.sampled_from(_EDGE_PRECISIONS)), d_sum - d_p)
    return P, Q


@settings(max_examples=100, deadline=None)
@given(_field_width_edge_pairs())
def test_op_mul_matches_fraction_oracle_at_field_width_edges(pair):
    _assert_op_mul_matches_fraction_oracle(*pair)


@st.composite
def _product_families(draw):
    """(As, Bs, mixed): 1-4 operators a side, each side at one budget, at
    small precisions and at the field-width edges; mixed names the side, if
    any, to which one operator at another budget was added."""
    coeff = st.fractions(-9, 9, max_denominator=12).filter(bool)

    def edge(top):
        return draw(st.one_of(st.just(top), st.just(0), st.integers(0, top)))

    def family(x_precision, d_bound):
        def operator():
            coeffs = {}
            for _ in range(draw(st.integers(0, 4))):
                i1, k1 = edge(x_precision - 1), edge(d_bound)
                coeffs[(i1, edge(x_precision - 1 - i1), k1, edge(d_bound - k1))] = draw(coeff)
            return pa.TruncatedOperator(coeffs, x_precision, d_bound)

        return [operator() for _ in range(draw(st.integers(1, 4)))]

    precision = st.one_of(st.integers(1, 6), st.sampled_from(_EDGE_PRECISIONS))
    d_sum = draw(st.sampled_from((0, 1, 2, 4, 8, 16)))
    d_p = draw(st.integers(0, d_sum))
    sides = {
        "left": family(draw(precision), d_p),
        "right": family(draw(precision), d_sum - d_p),
    }
    mixed = draw(st.sampled_from((None, "left", "right")))
    if mixed:
        F = draw(st.sampled_from(sides[mixed]))
        bump = draw(st.sampled_from(((1, 0), (0, 1))))
        sides[mixed].append(
            pa.TruncatedOperator._trusted(
                F.num, F.den, F.x_precision + bump[0], F.d_bound + bump[1]
            )
        )
    return sides["left"], sides["right"], mixed


@settings(max_examples=200, deadline=None)
@given(_product_families())
def test_product_rows_match_fraction_oracle(family):
    """Row n of _product_rows(As, Bs) is op_mul(As[n], B) for each B, by the
    Fraction oracle: values and budgets."""
    As, Bs, mixed = family
    rows = pa._product_rows(As, Bs)
    assert iter(rows) is rows  # formed row by row, as asked for
    if mixed:
        with pytest.raises(ValueError, match="share their budgets"):
            next(rows)
        return
    try:
        want = [[_fraction_op_mul(A, B) for B in Bs] for A in As]
    except pa.PrecisionError:
        with pytest.raises(pa.PrecisionError):
            next(rows)
        return
    got = list(rows)
    assert [len(row) for row in got] == [len(Bs)] * len(As)
    for got_row, want_row in zip(got, want):
        for AB, oracle in zip(got_row, want_row):
            assert AB.coeffs == oracle.coeffs
            assert (AB.x_precision, AB.d_bound) == (oracle.x_precision, oracle.d_bound)
            _assert_trusted_invariants(AB)


_params = st.fractions(-3, 3, max_denominator=4)


@settings(max_examples=150, deadline=None)
@given(_operators(), _params.filter(bool), _params, _params, _params, _params.filter(bool))
def test_change_variables_matches_fraction_oracle(P, a, b, c, d, e):
    got = pa.change_variables(P, a, b, c, d, e)
    want = _fraction_change_variables(P, a, b, c, d, e)
    assert got.coeffs == want.coeffs
    assert (got.x_precision, got.d_bound) == (want.x_precision, want.d_bound)
    _assert_trusted_invariants(got)


def test_trusted_builds_keep_invariants():
    """truncate, + and homogeneous_component drop what the constructor would."""
    P = op("x1 d1 + 1/2 x2^3 + d2")
    Q = op("-x1 d1 + x1^2")
    S = P + Q
    assert S == op("1/2 x2^3 + d2 + x1^2")
    _assert_trusted_invariants(S)
    # the 1/2 cancels, so the sum's denominator drops back to 1
    assert (op("1/2 x1 + d1") + op("1/2 x1")).den == 1
    short = op("x1 d1", 3) + op("x2^3 d2 + x1^4", 12)
    assert short == op("x1 d1", 3) and short.x_precision == 3
    cut = P.truncate(3)
    assert cut == op("x1 d1 + d2") and cut.x_precision == 3
    assert pa.homogeneous_component(P, 0) == op("x1 d1")
    with pytest.raises(ValueError):
        P.truncate(0)


@settings(max_examples=150, deadline=None)
@given(_operators(), _operators(), st.fractions(-4, 4, max_denominator=6), st.integers(1, 20))
def test_every_build_is_canonical(P, Q, c, t):
    """Each build, filtering or not, keeps den > 0, gcd 1 and no zero numerator."""
    builds = [P, P + Q, P - Q, P - P, P.scale(c), P.truncate(t)]
    builds += [pa.homogeneous_component(P, m) for m in range(-6, 2 * P.x_precision)]
    if not P.is_zero:
        builds.append(pa.ht_2(P))
    for R in builds:
        _assert_trusted_invariants(R)
    t_sum = min(P.x_precision, Q.x_precision)
    want = {}
    for k in {**P.coeffs, **Q.coeffs}:
        v = P.coeffs.get(k, 0) + Q.coeffs.get(k, 0)
        if v and k[0] + k[1] < t_sum:
            want[k] = v
    assert (P + Q).coeffs == want
    assert P.scale(c).coeffs == {k: c * v for k, v in P.coeffs.items() if c}


@settings(max_examples=150, deadline=None)
@given(_operators(), _operators(), st.integers(2, 30))
def test_equality_is_fraction_map_equality(P, Q, s):
    """Equal Fraction maps over any denominators give equal operators and hashes."""
    # the same map, as unreduced numerator/denominator pairs over s times each denominator
    R = pa.TruncatedOperator(
        {k: Fraction(v.numerator * s, v.denominator * s) for k, v in P.coeffs.items()},
        P.x_precision + 1,
    )
    S = P.scale(s).scale(Fraction(1, s))
    for twin in (R, S):
        assert twin == P and hash(twin) == hash(P)
        assert (twin.num, twin.den) == (P.num, P.den)
    assert (P == Q) == (P.coeffs == Q.coeffs)
    if not P.is_zero:
        key = next(iter(P.num))
        bumped = pa.TruncatedOperator(
            {**P.coeffs, key: P.coeffs[key] + Fraction(1, s)}, P.x_precision
        )
        assert bumped != P


def test_normalized_shape_not_preserved_by_shear():
    """Substituting d2 -> d2 + c d1 reintroduces the sub-top term.

    phi(d2^2) = d2^2 + 2c d1 d2 + c^2 d1^2 has a d2-degree-1 term, so the
    normalized shape is provably not stable under nontrivial shears, even
    though quasi-ellipticity is.
    """
    P = pa.special_change(op("d2^2"), 0, 1, 0)
    assert P == op("d2^2 + 2 d1 d2 + d1^2")
    assert not pa.is_normalized_pair(P, pa.special_change(op("d1 d2"), 0, 1, 0))
    assert pa.normalized_shape_preserved_under_special_change(trials=20, seed=1) is False


def _old_normalized_shape_loop(trials, seed, x_precision=T):
    """Oracle: the loop normalized_shape_preserved_under_special_change ran on its own.

    Returns its verdict and every sheared pair it would have tested had it
    not stopped at the first failure.
    """
    pairs = list(_fraction_sheared_normalized_pairs(Random(seed), x_precision, trials))
    return all(pa.is_normalized_pair(P, Q) for P, Q in pairs), pairs


def test_shared_shear_generator_matches_old_loop():
    """The generic-shear decision gives the verdict of the sampled loop it replaced."""
    for seed, x_precision in itertools.product(range(50), (1, 6, 12, 16)):
        trials = 1 + seed % 7
        verdict, _ = _old_normalized_shape_loop(trials, seed, x_precision)
        got = pa.normalized_shape_preserved_under_special_change(trials, seed, x_precision)
        assert got is verdict is False


def _shear_only_raising_one_tail(P, b, c, d):
    """The identity, except that x1^2 x2^2 d1 d2 gains d2^2: every sheared top
    stays normalized, and one tail rises."""
    if P.num == {(2, 2, 1, 1): 1}:
        d2 = {(0, 0, 0, 2): 1}
        return P + pa.TruncatedOperator._trusted(d2, 1, P.x_precision, P.d_bound)
    return P


@pytest.mark.parametrize(
    "mutant, want",
    [(lambda P, b, c, d: P, True), (_shear_only_raising_one_tail, False)],
    ids=["identity", "tail"],
)
def test_normalized_shape_decision_follows_a_mutant_shear(monkeypatch, mutant, want):
    """A shear that keeps every top normalized passes, unless a tail rises:
    the function decides the statement, it does not return a constant."""
    monkeypatch.setattr(pa, "special_change", mutant)
    for seed in range(3):
        assert pa.normalized_shape_preserved_under_special_change(20, seed) is want


def test_quasi_ellipticity_preserved_by_shear():
    rng = Random(3)
    for _ in range(30):
        P, Q = _fraction_random_normalized_pair(rng, T)
        b, c, d = rng.randint(-2, 2), rng.randint(-2, 2), rng.randint(-2, 2)
        assert pa.is_quasi_elliptic_pair(
            pa.special_change(P, b, c, d), pa.special_change(Q, b, c, d)
        )


def test_spectral_module_action():
    assert pa.spectral_module_action(op("d1"), (1, 0)) == {(2, 0): Fraction(1)}
    assert pa.spectral_module_action(op("x1 d1"), (1, 0)) == {(1, 0): Fraction(1)}
    # pure x-multiplication dies in the residue module
    assert pa.spectral_module_action(op("x1"), (0, 0)) == {}
    with pytest.raises(ValueError):
        pa.spectral_module_action(op("d1"), (-1, 0))
    # True would be read as d1, and 1.5 would die inside math.comb
    for monomial in ((True, 0), (0, True), (1.5, 0), (0, Fraction(1))):
        with pytest.raises(TypeError, match="p[12] must be an int"):
            pa.spectral_module_action(op("d1"), monomial)


def test_spectral_module_action_sorts_its_classes():
    """The classes come back sorted by key, whatever order the product holds."""
    act = pa.spectral_module_action(pa.parse_operator("d1 + d2", 12), (0, 0))
    assert list(act) == [(0, 1), (1, 0)]
    assert act == {(0, 1): Fraction(1), (1, 0): Fraction(1)}


def test_parse_round_trip():
    cases = [
        "d1",
        "x1^2 d1 d2 + x2",
        "1/2 x1 - 3 d2^4",
        "2 + x1 x2",
        "0",
    ]
    for text in cases:
        P = op(text)
        assert pa.parse_operator(pa.to_string(P), T) == P


@settings(max_examples=60, deadline=None)
@given(
    st.dictionaries(
        st.tuples(
            st.integers(0, 3), st.integers(0, 3), st.integers(0, 2), st.integers(0, 2)
        ),
        st.fractions(min_value=-5, max_value=5),
        min_size=1,
        max_size=5,
    )
)
def test_to_string_parse_identity(coeffs):
    P = pa.TruncatedOperator(coeffs, T)
    assert pa.parse_operator(pa.to_string(P), T) == P


def test_parse_zero_matches_constructor():
    for text, x_precision, d_bound in itertools.product(["", "0", " 0 "], [1, 12], [None, 0, 3]):
        got = pa.parse_operator(text, x_precision, d_bound)
        want = pa.TruncatedOperator({}, x_precision, d_bound)
        assert (got.num, got.den) == (want.num, want.den) == ({}, 1)
        assert (got.x_precision, got.d_bound) == (want.x_precision, want.d_bound)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        pa.parse_operator("x3", T)
    with pytest.raises(ValueError, match="zero denominator in '1/0'"):
        pa.parse_operator("1/0 x1", T)
    for text in ("d1 -", "x1 + + d1", "x1 +", "+", "x1 + - d1", "-"):
        with pytest.raises(ValueError, match="dangling sign"):
            pa.parse_operator(text, T)
    # a leading sign belongs to the first term
    assert op("+x1") == op("x1") and op("-x1") == op("x1").scale(-1)


def test_parse_keeps_tokens_apart():
    """Whitespace separates tokens and never joins two into one."""
    for text in ("2 3 x1", "x1^1 2", "x1 2", "1 + 2 3 d1", "x1 d1 5"):
        with pytest.raises(ValueError, match="does not lead its term"):
            pa.parse_operator(text, 30)
    for text in ("x 1", "d1^ 2", "1 /2 x1", "1/ 2 x1", "\u0663 x1", "x1^\u0662"):
        with pytest.raises(ValueError, match="cannot parse"):
            pa.parse_operator(text, 30)
    assert pa.parse_operator("23 x1", 30) == pa.parse_operator("23x1", 30)
    assert pa.to_string(pa.parse_operator(" x1^12 ", 30)) == "x1^12"
    assert pa.parse_operator("  ", T).is_zero
    assert op(" 1/2 x1 x2^2  d1 -3 d2 ") == op("1/2x1x2^2d1-3d2")


def test_parse_rejects_x_after_d():
    """d1 x1 = x1 d1 + 1 is not one monomial; the grammar puts x before d."""
    for text in ("d1 x1", "x2 + 3 d2 x1^2", "-x1 d1 x2"):
        with pytest.raises(ValueError, match="x-factor after a d-factor"):
            pa.parse_operator(text, T)
    assert op("x2 x1") == op("x1 x2")
    assert op("d2 d1") == op("d1 d2")
    assert pa.op_mul(op("d1"), op("x1")) == op("x1 d1 + 1")


def test_property_suite_small_run_is_green():
    entries = pa.run_property_suite(trials=40, seed=11)
    assert entries
    assert all(e.status == "pass" for e in entries)


def test_suite_refuses_zero_trials():
    for trials in (0, -3):
        with pytest.raises(ValueError, match="trials"):
            pa.run_property_suite(trials=trials)
        with pytest.raises(ValueError, match="trials"):
            pa.normalized_shape_preserved_under_special_change(trials=trials)


def _refusing_random(seed):
    pytest.fail(f"Random({seed}) was made before the seed was checked")


def test_suite_refuses_negative_seed(monkeypatch):
    """Random(-s) draws what Random(s) draws, so -7 would rerun seed 7 under
    another name; the refusal comes before any Random is made."""
    monkeypatch.setattr(pa, "Random", _refusing_random)
    for seed in (-1, -7, -42):
        with pytest.raises(ValueError, match=f"seed must be at least 0, got {seed}"):
            pa.run_property_suite(trials=20, seed=seed)


def test_normalized_shape_refuses_negative_seed(monkeypatch):
    monkeypatch.setattr(pa, "Random", _refusing_random)
    for seed in (-1, -7, -42):
        with pytest.raises(ValueError, match=f"seed must be at least 0, got {seed}"):
            pa.normalized_shape_preserved_under_special_change(trials=20, seed=seed)


@pytest.mark.parametrize(
    "func", [pa.run_property_suite, pa.normalized_shape_preserved_under_special_change]
)
def test_trials_and_seed_refuse_bools_and_floats(monkeypatch, func):
    """Random(True) and Random(1.0) draw what Random(1) draws, and a bool or
    float trials count would pass unnoticed; each is refused before any draw."""
    monkeypatch.setattr(pa, "Random", _refusing_random)
    for name, val in (("trials", True), ("trials", 2.5), ("seed", True), ("seed", 1.0)):
        with pytest.raises(TypeError, match=f"{name} must be an int, got {val!r}"):
            func(**{"trials": 20, "seed": 1, name: val})


def test_suite_refuses_a_precision_that_is_not_an_int(monkeypatch):
    """True and 9.5 were reported as a precision below 10, and "12" failed
    the comparison with a bare TypeError; each is refused before any draw."""
    monkeypatch.setattr(pa, "Random", _refusing_random)
    for x_precision in (True, 9.5, 12.0, "12"):
        with pytest.raises(TypeError, match=f"x_precision must be an int, got {x_precision!r}"):
            pa.run_property_suite(trials=20, x_precision=x_precision)


def test_suite_refuses_a_d_bound_that_is_not_a_natural_number(monkeypatch):
    """No entry depends on d_bound, so "junk" and -7 ran and passed; each is
    refused before any draw."""
    monkeypatch.setattr(pa, "Random", _refusing_random)
    for d_bound in ("junk", True, 6.0):
        with pytest.raises(TypeError, match=f"d_bound must be an int, got {d_bound!r}"):
            pa.run_property_suite(trials=1, seed=0, x_precision=10, d_bound=d_bound)
    for d_bound in (-1, -7):
        with pytest.raises(ValueError, match=f"d_bound must be at least 0, got {d_bound}"):
            pa.run_property_suite(trials=1, seed=0, x_precision=10, d_bound=d_bound)


def test_suite_refuses_precision_below_ten():
    # a product of two draws has order >= -4, precision T - 2 and derivative
    # bound 4: bold_ord decides it for every draw exactly when T >= 10
    for x_precision in (1, 7, 8, 9):
        with pytest.raises(pa.PrecisionError, match="x_precision >= 10"):
            pa.run_property_suite(trials=40, x_precision=x_precision)
    for seed in range(12):
        entries = pa.run_property_suite(trials=40, seed=seed, x_precision=10)
        assert all(e.status == "pass" for e in entries)


def _basis_keys(x_precision):
    """Keys _fraction_random_operator can draw at this precision, from its loop bounds."""
    return {
        (i1, i2, k1, k2)
        for i1 in range(3)
        for i2 in range(3 - i1)
        for k1 in range(3)
        for k2 in range(3 - k1)
        if i1 + i2 < x_precision
    }


def test_monomial_basis_shape():
    for x_precision in range(1, 21):
        basis = pa._monomial_basis(x_precision)
        assert [(B.den, B.d_bound) for B in basis] == [(1, 2)] * len(basis)
        assert all(list(B.num.values()) == [1] for B in basis)
        keys = [key for B in basis for key in B.num]
        assert len(keys) == len(set(keys)) and set(keys) == _basis_keys(x_precision)
        assert {B.x_precision for B in basis} == {x_precision}
    assert len(pa._monomial_basis(12)) == 36


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 2**32 - 1), st.integers(1, 20))
def test_random_operator_lies_in_basis_span(seed, x_precision):
    """The premise of the basis certificates in run_property_suite: every draw
    is a combination of _monomial_basis(T) at its budgets, nonzero from T = 3."""
    rng = Random(seed)
    keys = _basis_keys(x_precision)
    for _ in range(20):
        P = _fraction_random_operator(rng, x_precision)
        assert (P.x_precision, P.d_bound) == (x_precision, 2)
        assert set(P.num) <= keys and (P.num or x_precision < 3)


def _sampled_precision_failures(rng, x_precision, trials):
    """Oracle: the sampled precision-soundness loop the suite used to run."""
    fail = 0
    for _ in range(trials):
        P = _fraction_random_operator(rng, x_precision)
        Q = _fraction_random_operator(rng, x_precision)
        low = pa.op_mul(P, Q)
        hi_p = pa.TruncatedOperator._trusted(P.num, P.den, x_precision + 6, P.d_bound)
        hi_q = pa.TruncatedOperator._trusted(Q.num, Q.den, x_precision + 6, Q.d_bound)
        if pa.op_mul(hi_p, hi_q).truncate(low.x_precision) != low:
            fail += 1
    return fail


def _sampled_reassembly_failures(rng, x_precision, trials):
    """Oracle: the sampled component-reassembly loop the suite used to run."""
    fail = 0
    for _ in range(trials):
        P = _fraction_random_operator(rng, x_precision)
        total = pa.TruncatedOperator.zero(x_precision)
        for m in {(k[0] + k[1]) - (k[2] + k[3]) for k in P.num}:
            total = total + pa.homogeneous_component(P, m)
        if total != P:
            fail += 1
    return fail


def _run_law(law, seed=42, x_precision=T):
    """The entries of one law run alone off Random(seed), by check id."""
    entries = law(Random(seed), x_precision, pa._monomial_basis(x_precision))
    return {e.check_id: e for e in entries}


# the laws of the property suite in table order, each with the ids it reports
_LAW_IDS = {
    "_law_relations": ["pdo.defining_relation", "pdo.euler_square"],
    "_law_associativity": ["pdo.associativity"],
    "_law_order_and_symbol": [
        "pdo.order_subadditive",
        "pdo.order_additive_nonzero_symbols",
        "pdo.symbol_multiplicative",
        "pdo.order_strict_drop",
    ],
    "_law_graded_order": ["pdo.gamma_order_additive", "pdo.highest_term_multiplicative"],
    "_law_a1": ["pdo.a1_closure"],
    "_law_ring_map": ["pdo.change_is_ring_map", "pdo.change_commutators"],
    "_law_quasi_elliptic": ["pdo.quasi_elliptic_preserved"],
    "_law_precision": ["pdo.precision_soundness"],
    "_law_reassembly": ["pdo.component_reassembly"],
    "_law_module_action": ["pdo.module_action_reduction", "pdo.module_torsion_free"],
    "_law_normalized_examples": ["pdo.normalized_example", "pdo.normalized_rejects_subtop"],
}


def test_suite_is_its_laws_in_table_order_off_one_random(monkeypatch):
    golden = json.loads((Path(__file__).parent / "golden_pdo_default.json").read_text())
    golden_ids = [e["check_id"] for e in golden["entries"]]
    assert len(golden_ids) == 19
    assert [i for ids in _LAW_IDS.values() for i in ids] == golden_ids
    assert [law.__name__ for law in pa._LAWS] == list(_LAW_IDS)
    made = []

    class RecordedRandom(Random):
        def __init__(self, seed):
            super().__init__(seed)
            made.append(self)

    # a passing entry reads the same whatever was drawn, so the draws are
    # compared through the state of the one Random the suite makes
    monkeypatch.setattr(pa, "Random", RecordedRandom)
    for seed in range(5):
        for x_precision in (10, 12, 16):
            rng, basis = Random(seed), pa._monomial_basis(x_precision)
            runs = [law(rng, x_precision, basis) for law in pa._LAWS]
            assert [[e.check_id for e in run] for run in runs] == list(_LAW_IDS.values())
            made.clear()
            suite = pa.run_property_suite(trials=5, seed=seed, x_precision=x_precision)
            assert [repr(e) for e in suite] == [repr(e) for run in runs for e in run]
            assert len(made) == 1 and made[0].getstate() == rng.getstate()


def test_basis_certificates_agree_with_sampled_oracles():
    for x_precision in (12, 16):
        for law, check_id in (
            (pa._law_precision, "pdo.precision_soundness"),
            (pa._law_reassembly, "pdo.component_reassembly"),
        ):
            assert _run_law(law, x_precision=x_precision)[check_id].actual == 0
        for seed in range(5):
            rng = Random(seed)
            assert _sampled_precision_failures(rng, x_precision, 500) == 0
            assert _sampled_reassembly_failures(rng, x_precision, 500) == 0


_REAL_ROWS = pa._product_rows


def _rows_with(mutant):
    """_product_rows with each product AB replaced by mutant(A, B, AB)."""

    def rows(As, Bs):
        for A, row in zip(As, _REAL_ROWS(As, Bs)):
            yield [mutant(A, B, AB) for B, AB in zip(Bs, row)]

    return rows


def test_precision_certificate_catches_one_bad_pair(monkeypatch):
    """A wrong high-precision product of one basis pair reads exactly 1."""
    x_precision = 12

    def corrupt(P, Q, prod):
        if (
            P.x_precision == Q.x_precision == x_precision + 6
            and (P.num, P.den, Q.num, Q.den) == ({(2, 0, 0, 2): 1}, 1, {(0, 2, 2, 0): 1}, 1)
        ):
            return prod + pa.TruncatedOperator.one(prod.x_precision)
        return prod

    monkeypatch.setattr(pa, "_product_rows", _rows_with(corrupt))
    got = _run_law(pa._law_precision, x_precision=x_precision)
    assert got["pdo.precision_soundness"].actual == 1


def test_basis_pair_products_are_formed_once_per_suite_call(monkeypatch):
    """The order and precision laws share one pass over the 1,296 basis pairs.

    A suite call makes 4,312 products, where a pass per law made 5,608, and a
    second call makes as many again: no count outlives its basis.  Every
    product, op_mul's included, comes out of _product_rows.
    """
    calls = []

    def counting(P, Q, prod):
        calls.append(None)
        return prod

    monkeypatch.setattr(pa, "_product_rows", _rows_with(counting))
    for x_precision in (12, 16, 12, 12):
        calls.clear()
        pa.run_property_suite(trials=5, seed=42, x_precision=x_precision)
        assert len(calls) == 4312
    # whichever law runs first makes the pass: 1,296 products at T and 1,296
    # at T + 6; the order law also forms the one product of its strict drop
    order, precision = pa._law_order_and_symbol, pa._law_precision
    for laws, want in (((order, precision), [2593, 0]), ((precision, order), [2592, 1])):
        basis, made = pa._monomial_basis(T), []
        for law in laws:
            calls.clear()
            law(Random(0), T, basis)
            made.append(len(calls))
        assert made == want


def test_a_suite_call_makes_46_kernel_calls(monkeypatch):
    """Families whose factors share their budgets are one _product_rows call
    each: the A1 grade pairs, the graded order's top pairs and their ht_2,
    the commutators both ways.  38 one-pair op_mul calls remain."""
    calls = {"op_mul": 0, "_product_rows": 0}

    def counted(name):
        real = getattr(pa, name)

        def wrapper(*args):
            calls[name] += 1
            return real(*args)

        return wrapper

    for name in calls:
        monkeypatch.setattr(pa, name, counted(name))
    pa.run_property_suite(trials=5, seed=42, x_precision=T)
    assert calls == {"op_mul": 38, "_product_rows": 46}


def test_report_bytes_do_not_depend_on_the_kernels_key_order(monkeypatch):
    """Every product with its terms in reversed order gives the same report JSON."""

    def reversed_terms(P, Q, prod):
        num = dict(reversed(prod.num.items()))
        return pa.TruncatedOperator._trusted(num, prod.den, prod.x_precision, prod.d_bound)

    def report(x_precision):
        entries = pa.run_property_suite(seed=42, x_precision=x_precision)
        return VerificationReport(entries).to_json(timestamp=False)

    precisions = (10, 12, 16)
    want = [report(x_precision) for x_precision in precisions]
    monkeypatch.setattr(pa, "_product_rows", _rows_with(reversed_terms))
    assert [report(x_precision) for x_precision in precisions] == want


_REAL_COMPONENT = pa.homogeneous_component
_REAL_MUL = pa.op_mul
# grades of the basis at T = 12
_BASIS_GRADES = [(k[0] + k[1]) - (k[2] + k[3]) for k in _basis_keys(12)]


def _dropping(grade):
    return lambda P, m: (
        pa.TruncatedOperator.zero(P.x_precision) if m == grade else _REAL_COMPONENT(P, m)
    )


@pytest.mark.parametrize(
    "component, want",
    [
        # losing grade g fails once per basis operator of grade g
        *((_dropping(g), _BASIS_GRADES.count(g)) for g in range(-2, 3)),
        # ignoring m keeps each basis operator at its 4 other grades
        (lambda P, m: P, 36 * 4),
        # keeping grades m and m + 1 keeps each one once more, at m = g - 1,
        # except those of grade -2, for which m = -3 is not checked
        (
            lambda P, m: _REAL_COMPONENT(P, m) + _REAL_COMPONENT(P, m + 1),
            36 - _BASIS_GRADES.count(-2),
        ),
    ],
    ids=[f"drops-{g}" for g in range(-2, 3)] + ["ignores-m", "keeps-m-and-m+1"],
)
def test_reassembly_certificate_catches_a_wrong_component(monkeypatch, component, want):
    monkeypatch.setattr(pa, "homogeneous_component", component)
    assert _run_law(pa._law_reassembly)["pdo.component_reassembly"].actual == want


def _sampled_order_and_symbol_failures(rng, x_precision, trials):
    """Oracle: the sampled order and symbol loop the suite used to run.

    Returns (subadditivity, additivity, symbol) failures and the number of
    pairs whose symbol product was nonzero.
    """
    sub_fail = eq_fail = sym_fail = eq_seen = 0
    for _ in range(trials):
        P = _fraction_random_operator(rng, x_precision)
        Q = _fraction_random_operator(rng, x_precision)
        prod = pa.op_mul(P, Q)
        bo = pa.bold_ord(prod)
        total = pa.bold_ord(P) + pa.bold_ord(Q)
        sub_fail += bo > total
        ss = pa.op_mul(pa.symbol(P), pa.symbol(Q))
        if not ss.is_zero:
            eq_seen += 1
            eq_fail += bo != total
            sym_fail += not pa._agree(pa.symbol(prod), ss)
    return sub_fail, eq_fail, sym_fail, eq_seen


def _sampled_graded_order_failures(rng, x_precision, trials):
    """Oracle: the sampled graded-order and ht_2 loop the suite used to run."""
    gamma_fail = ht_fail = 0
    for _ in range(trials):
        P = _fraction_random_graded_monic(rng, x_precision)
        Q = _fraction_random_graded_monic(rng, x_precision)
        prod = pa.op_mul(P, Q)
        (kp, lp), (kq, lq) = pa.ord_gamma(P), pa.ord_gamma(Q)
        gamma_fail += pa.ord_gamma(prod) != (kp + kq, lp + lq)
        ht_fail += not pa._agree(pa.ht_2(prod), pa.op_mul(pa.ht_2(P), pa.ht_2(Q)))
    return gamma_fail, ht_fail


_ORDER_IDS = (
    "pdo.order_subadditive",
    "pdo.order_additive_nonzero_symbols",
    "pdo.symbol_multiplicative",
)
_GRADED_IDS = ("pdo.gamma_order_additive", "pdo.highest_term_multiplicative")


def test_order_and_graded_certificates_agree_with_sampled_oracles():
    """Both certificates pass and draw nothing; the old 500-pair loops find
    no failure either, and every pair they drew had a nonzero symbol product."""
    for x_precision in (10, 12, 16):
        rng, basis = Random(0), pa._monomial_basis(x_precision)
        got = {
            e.check_id: e.actual
            for law in (pa._law_order_and_symbol, pa._law_graded_order)
            for e in law(rng, x_precision, basis)
        }
        assert rng.getstate() == Random(0).getstate()
        assert [got[i] for i in _ORDER_IDS + _GRADED_IDS] == [0] * 5
        for seed in range(5):
            rng = Random(seed)
            assert _sampled_order_and_symbol_failures(rng, x_precision, 500) == (0, 0, 0, 500)
            assert _sampled_graded_order_failures(rng, x_precision, 500) == (0, 0)


_ORDER_WORK = "1296 products of the 36 basis monomials"
_GRADED_WORK = "d2-filtration on 1521 monomial pairs, 36 top pairs"


def test_certified_laws_state_their_work():
    """The seven certified entries name their fixed work, and the two decided
    at a generic point their miss bound, whatever the seed and precision."""
    want = {
        "pdo.order_subadditive": f"ord(PQ) <= ord(P) + ord(Q): {_ORDER_WORK}",
        "pdo.order_additive_nonzero_symbols": (
            f"ord(PQ) = ord(P) + ord(Q) when sigma(P) sigma(Q) != 0: {_ORDER_WORK}"
        ),
        "pdo.symbol_multiplicative": (
            f"sigma(PQ) = sigma(P) sigma(Q) when nonzero: {_ORDER_WORK}, each homogeneous"
        ),
        "pdo.gamma_order_additive": f"graded order adds on monic-leading pairs: {_GRADED_WORK}",
        "pdo.highest_term_multiplicative": f"top d2-coefficients multiply: {_GRADED_WORK}",
        "pdo.a1_closure": (
            "growth levels add under multiplication: 81 grade pairs of 90 monomials, "
            "miss probability <= 2/(2^64 - 1)"
        ),
        "pdo.quasi_elliptic_preserved": (
            "shear changes keep pairs quasi-elliptic: one generic shear of the 36 tail "
            "monomials and the 4 top pairs, miss probability <= 6/(2^64 - 1)"
        ),
    }
    laws = (pa._law_order_and_symbol, pa._law_graded_order, pa._law_a1, pa._law_quasi_elliptic)
    for seed, x_precision in itertools.product(range(2), (10, 12, 16)):
        by_id = {
            i: e.reference for law in laws for i, e in _run_law(law, seed, x_precision).items()
        }
        assert {i: by_id[i] for i in want} == want


# the two entries whose operators print their precision T
_T_PRINTING = {"pdo.defining_relation", "pdo.euler_square"}


def test_pdo_entries_do_not_depend_on_trials():
    """No law samples, so trials is only validated: 1 and 500 give the same
    entries.  Nor does a T >= 10 size a verdict: 10, 12 and 16 give the same
    entries, but for the two that print T, whose statuses agree."""
    for seed in range(3):
        runs = {
            (trials, T): [repr(e) for e in pa.run_property_suite(trials, seed, T)]
            for trials, T in itertools.product((1, 500), (10, 12, 16))
        }
        for T in (10, 12, 16):
            assert runs[1, T] == runs[500, T]
        at_12 = pa.run_property_suite(1, seed, 12)
        for T in (10, 16):
            at_T = pa.run_property_suite(1, seed, T)
            assert [(e.check_id, e.status) for e in at_T] == [
                (e.check_id, e.status) for e in at_12
            ]
            differ = {e.check_id for e, f in zip(at_T, at_12) if repr(e) != repr(f)}
            assert differ == _T_PRINTING


def test_symbol_check_catches_a_wrong_grade(monkeypatch):
    """A symbol one grade too high is zero on every homogeneous operator, so
    no basis operator is its own symbol and every basis product fails."""
    real_bold_ord = pa.bold_ord
    monkeypatch.setattr(pa, "symbol", lambda P: _REAL_COMPONENT(P, 1 - real_bold_ord(P)))
    got = _run_law(pa._law_order_and_symbol)
    assert [got[i].actual for i in _ORDER_IDS] == [0, 0, 36**2]


def test_order_check_catches_an_off_by_one_order(monkeypatch):
    """ord + 1 on every operator: a product reads one more than its true
    order and the sum two more, so every product breaks additivity, none
    subadditivity, and the symbols (at the true grade) still hold."""
    real_bold_ord = pa.bold_ord
    monkeypatch.setattr(pa, "symbol", lambda P: _REAL_COMPONENT(P, -real_bold_ord(P)))
    monkeypatch.setattr(pa, "bold_ord", lambda P: real_bold_ord(P) + 1)
    got = _run_law(pa._law_order_and_symbol)
    assert [got[i].actual for i in _ORDER_IDS] == [0, 36**2, 0]


def _x1_on_d1_x1(P, Q, prod):
    """The product, except that d1 . x1 at the basis d_bound 2 gives x1 d1 + 1 + x1:
    the extra term is one grade below, so that one product is not homogeneous
    while its order stays 0."""
    d1, x1 = {(0, 0, 1, 0): 1}, {(1, 0, 0, 0): 1}
    if P.d_bound == 2 and (P.num, P.den, Q.num, Q.den) == (d1, 1, x1, 1):
        return prod + pa.TruncatedOperator._trusted(x1, 1, prod.x_precision, prod.d_bound)
    return prod


def test_symbol_check_catches_an_inhomogeneous_product(monkeypatch):
    monkeypatch.setattr(pa, "_product_rows", _rows_with(_x1_on_d1_x1))
    got = _run_law(pa._law_order_and_symbol)
    assert [got[i].actual for i in _ORDER_IDS] == [0, 0, 1]


def _d2_on_x1_x2(P, Q, prod):
    """The product, except that x1 . x2 at the graded draws' d_bound 4 gives
    x1 x2 d2: one product of the span breaks the d2-filtration."""
    x1, x2 = {(1, 0, 0, 0): 1}, {(0, 1, 0, 0): 1}
    if P.d_bound == 4 and (P.num, P.den, Q.num, Q.den) == (x1, 1, x2, 1):
        return pa.TruncatedOperator._trusted({(1, 1, 0, 1): 1}, 1, prod.x_precision, prod.d_bound)
    return prod


def _x1_on_d1_d1_squared(P, Q, prod):
    """The product, except that d1 . d1^2 at the graded draws' d_bound 4 gains
    x1.  That is the ht_2 product of each top pair (d1 d2^l, d1^2 d2^l'), so one
    ht_2 product is wrong for l, l' in {1, 2}; the span's own d1 . d1^2 keeps
    the d2-filtration, and the top products keep their graded orders."""
    d1, d1_squared = {(0, 0, 1, 0): 1}, {(0, 0, 2, 0): 1}
    if P.d_bound == 4 and (P.num, P.den, Q.num, Q.den) == (d1, 1, d1_squared, 1):
        x1 = {(1, 0, 0, 0): 1}
        return prod + pa.TruncatedOperator._trusted(x1, 1, prod.x_precision, prod.d_bound)
    return prod


_REAL_ORD_GAMMA = pa.ord_gamma


def _ord_gamma_off_above_two(P):
    """ord_gamma, with k one too high once the top d2-degree exceeds 2."""
    k, l = _REAL_ORD_GAMMA(P)
    return (k + 1, l) if l > 2 else (k, l)


@pytest.mark.parametrize(
    "name, mutant, want",
    [
        # one span pair breaks the filtration that both laws rest on
        ("_product_rows", _rows_with(_d2_on_x1_x2), [1, 1]),
        # top pairs with lp + lq > 2: 3 x 3 for each of (1, 2), (2, 1), (2, 2)
        ("ord_gamma", _ord_gamma_off_above_two, [27, 0]),
        # one ht_2 product, shared by the 2 x 2 top pairs of tops d1 and d1^2
        ("_product_rows", _rows_with(_x1_on_d1_d1_squared), [0, 4]),
    ],
    ids=["filtration", "top-pairs", "ht-product"],
)
def test_graded_certificate_catches_a_mutant(monkeypatch, name, mutant, want):
    monkeypatch.setattr(pa, name, mutant)
    got = _run_law(pa._law_graded_order)
    assert [got[i].actual for i in _GRADED_IDS] == want


@pytest.mark.parametrize("x_precision", [3, 10, 12, 16])
def test_graded_monic_draws_lie_in_the_certified_span(x_precision):
    """The premise of the graded certificate: each draw is its top d1^k d2^l
    (coefficient 1) plus tail terms of d2-degree below l from span, all at
    budgets (T, 4)."""
    span, tops = pa._graded_monic_span(x_precision)
    for A in span + tops:
        assert (len(A.num), A.den, A.x_precision, A.d_bound) == (1, 1, x_precision, 4)
        assert list(A.num.values()) == [1]
    keys = [key for A in span for key in A.num]
    span_keys, top_keys = set(keys), {key for A in tops for key in A.num}
    assert len(keys) == len(span_keys) == 39 and len(tops) == len(top_keys) == 6
    assert top_keys == {(0, 0, k, l) for k in range(3) for l in (1, 2)}
    tails = {
        (i1, i2, k1, k2)
        for i1, i2, k1, k2 in itertools.product(range(3), range(3), range(3), range(2))
        if i1 + i2 <= 2
    }
    assert span_keys == tails | {(0, 0, k, 2) for k in range(3)}
    for seed in range(200):
        rng = Random(seed)
        for _ in range(5):
            P = _fraction_random_graded_monic(rng, x_precision)
            assert (P.x_precision, P.d_bound) == (x_precision, 4)
            l = max(key[3] for key in P.num)
            ((top, n),) = [(key, n) for key, n in P.num.items() if key[3] == l]
            assert top in top_keys and n == P.den
            tail = [key for key in P.num if key != top]
            assert all(key in span_keys and key[3] < l for key in tail)


def _sampled_associativity_failures(rng, x_precision, trials):
    """Oracle: the sampled associativity loop the suite used to run."""
    fail = 0
    for _ in range(trials):
        P, Q, R = (_fraction_random_operator(rng, x_precision) for _ in range(3))
        if not pa._agree(pa.op_mul(pa.op_mul(P, Q), R), pa.op_mul(P, pa.op_mul(Q, R))):
            fail += 1
    return fail


def _sampled_ring_map_failures(rng, x_precision, trials):
    """Oracle: the sampled ring-map and commutator loop the suite used to run,
    over parameters a, e in {-2, -1, 1, 2} and b, c, d in -2..2."""
    hom_fail = comm_fail = 0
    gens = [
        pa.TruncatedOperator.monomial(key, x_precision)
        for key in ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    ]
    for _ in range(trials):
        params = [
            rng.choice(_NONZERO_2),
            rng.randint(-2, 2),
            rng.randint(-2, 2),
            rng.randint(-2, 2),
            rng.choice(_NONZERO_2),
        ]
        P = _fraction_random_operator(rng, x_precision)
        Q = _fraction_random_operator(rng, x_precision)
        lhs = pa.change_variables(pa.op_mul(P, Q), *params)
        rhs = pa.op_mul(pa.change_variables(P, *params), pa.change_variables(Q, *params))
        if not pa._agree(lhs, rhs):
            hom_fail += 1
        imgs = [pa.change_variables(g, *params) for g in gens]
        for di in (2, 3):
            for xj in (0, 1):
                com = pa.op_mul(imgs[di], imgs[xj]) - pa.op_mul(imgs[xj], imgs[di])
                want = (
                    pa.TruncatedOperator.one(com.x_precision)
                    if di - 2 == xj
                    else pa.TruncatedOperator.zero(com.x_precision)
                )
                if com != want:
                    comm_fail += 1
    return hom_fail, comm_fail


_GENERIC_IDS = ("pdo.associativity", "pdo.change_is_ring_map", "pdo.change_commutators")


def test_generic_certificates_agree_with_sampled_oracles():
    for x_precision in (12, 16):
        for seed in range(3):
            got = {
                **_run_law(pa._law_associativity, seed, x_precision=x_precision),
                **_run_law(pa._law_ring_map, seed, x_precision=x_precision),
            }
            assert [got[i].actual for i in _GENERIC_IDS] == [0, 0, 0]
        for seed in range(5):
            rng = Random(seed)
            assert _sampled_associativity_failures(rng, x_precision, 500) == 0
            assert _sampled_ring_map_failures(rng, x_precision, 100) == (0, 0)


@pytest.mark.parametrize("x_precision", [12, 16])
def test_op_mul_of_a_dense_pair_is_the_sum_of_its_basis_pair_products(x_precision):
    """The generic triple stands for every draw only if op_mul treats each term
    pair alike: no kernel may branch on the support, say on len(P.num)."""
    basis = pa._monomial_basis(x_precision)
    rng = Random(x_precision)
    keys = [key for B in basis for key in B.num]
    P, Q = (pa._generic_operator(rng, keys, x_precision, 2) for _ in range(2))
    for G in (P, Q):
        assert set(G.num) == _basis_keys(x_precision) and len(G.num) == 36
        assert (G.den, G.x_precision, G.d_bound) == (1, x_precision, 2)
        assert all(1 <= n < 2**64 for n in G.num.values())
    # the kernel's basis rows, which the certificates read, and op_mul pair by pair
    rows = list(pa._product_rows(basis, basis))
    pairwise = [[pa.op_mul(A, B) for B in basis] for A in basis]
    prod = pa.op_mul(P, Q)
    for products in (rows, pairwise):
        acc = {}
        for A, row in zip(basis, products):
            ((ka, _),) = A.num.items()
            for B, AB in zip(basis, row):
                ((kb, _),) = B.num.items()
                assert AB.den == 1
                for key, n in AB.num.items():
                    acc[key] = acc.get(key, 0) + P.num[ka] * Q.num[kb] * n
        want = {key: n for key, n in acc.items() if n}
        assert (prod.num, prod.den) == (want, 1)
    assert (prod.x_precision, prod.d_bound) == (x_precision - 2, 4)


@pytest.mark.parametrize("x_precision", [12, 16])
def test_change_variables_of_a_dense_operator_is_the_sum_of_its_monomial_images(x_precision):
    """The ring-map certificate substitutes into a dense 225-term product, so
    change_variables must treat every term alike there: its image is the sum of
    the coefficients times the monomial images, in num and in den."""
    keys = [
        (i1, i2, k1, k2)
        for i1 in range(5)
        for i2 in range(5 - i1)
        for k1 in range(5)
        for k2 in range(5 - k1)
    ]
    rng = Random(x_precision)
    P = pa._generic_operator(rng, keys, x_precision, 4)
    assert len(P.num) == 225 and (P.den, P.d_bound) == (1, 4)
    params = [rng.randrange(1, 2**64) for _ in range(5)]
    acc = {}
    for key, coeff in P.num.items():
        image = pa.change_variables(pa.TruncatedOperator.monomial(key, x_precision), *params)
        for k, n in image.num.items():
            acc[k] = acc.get(k, 0) + Fraction(coeff * n, image.den)
    want_den = math.lcm(*(v.denominator for v in acc.values()))
    want = {k: int(v * want_den) for k, v in acc.items() if v}
    got = pa.change_variables(P, *params)
    assert (got.num, got.den) == (want, want_den)
    assert (got.x_precision, got.d_bound) == (x_precision, 4)
    # Fraction parameters give the d-images denominators too
    fractions = (Fraction(3, 2), Fraction(-5, 7), Fraction(2, 3), Fraction(7, 4), Fraction(-4, 5))
    sixth = P.scale(Fraction(1, 6))
    got = pa.change_variables(sixth, *fractions)
    want = _fraction_change_variables(sixth, *fractions)
    assert (got.num, got.den) == (want.num, want.den)
    _assert_trusted_invariants(got)


_LEFT, _RIGHT = (2, 0, 0, 2), (0, 2, 2, 0)


def _mul_with_one_extra_pair(P, Q):
    """op_mul plus one more copy of the x1^2 d2^2 . x2^2 d1^2 term pair: still
    bilinear, and wrong on that basis pair alone."""
    prod = _REAL_MUL(P, Q)
    a, b = P.num.get(_LEFT), Q.num.get(_RIGHT)
    if a is None or b is None:
        return prod
    left = pa.TruncatedOperator._trusted({_LEFT: 1}, 1, P.x_precision, P.d_bound)
    right = pa.TruncatedOperator._trusted({_RIGHT: 1}, 1, Q.x_precision, Q.d_bound)
    return prod + _REAL_MUL(left, right).scale(Fraction(a * b, P.den * Q.den))


@pytest.mark.parametrize("seed", range(5))
def test_associativity_certificate_catches_one_bad_basis_pair(monkeypatch, seed):
    monkeypatch.setattr(pa, "op_mul", _mul_with_one_extra_pair)
    assert _run_law(pa._law_associativity, seed)["pdo.associativity"].actual == 1


_REAL_IMAGES = pa._substitution_images


def _images_without_shear_in_x1(a, b, c, d, e):
    """The substitution with x1 -> x1/e: its -c/(ae) x2 term is lost, so it is
    right exactly when c == 0."""
    _, *rest = _REAL_IMAGES(a, b, c, d, e)
    return (pa._integer_form({(1, 0): 1 / Fraction(e)}), *rest)


def test_ring_map_certificate_catches_a_substitution_wrong_only_for_shears(monkeypatch):
    keys = [key for B in pa._monomial_basis(T) for key in B.num]
    P = pa._generic_operator(Random(3), keys, T, 2)
    real = [pa.change_variables(P, 2, 3, c, 5, 7) for c in (0, 4)]
    monkeypatch.setattr(pa, "_substitution_images", _images_without_shear_in_x1)
    wrong = [pa.change_variables(P, 2, 3, c, 5, 7) for c in (0, 4)]
    assert wrong[0] == real[0] and wrong[1] != real[1]
    for seed in range(5):
        got = _run_law(pa._law_ring_map, seed)
        assert got["pdo.change_is_ring_map"].actual == 1
        # only [d2, x1] = c/e breaks
        assert got["pdo.change_commutators"].actual == 1


def _a1_grades(P):
    return {k1 + k2 - i1 - i2 for i1, i2, k1, k2 in P.num}


def _a_term_above(g, h):
    """The product, except that the product of the A1 certificate's grade-g
    and grade-h operators gains one term of grade g + h + 1."""
    extra = g + h + 1
    key = (0, 0, extra, 0) if extra >= 0 else (-extra, 0, 0, 0)

    def mutant(P, Q, prod):
        if (_a1_grades(P), _a1_grades(Q)) == ({g}, {h}):
            term = pa.TruncatedOperator._trusted({key: 1}, 1, prod.x_precision, prod.d_bound)
            return prod + term
        return prod

    return mutant


@pytest.mark.parametrize("g, h", [(0, 0), (2, -6), (-1, 2)])
def test_a1_certificate_catches_one_term_above_its_grade(monkeypatch, g, h):
    monkeypatch.setattr(pa, "_product_rows", _rows_with(_a_term_above(g, h)))
    for seed in range(3):
        assert _run_law(pa._law_a1, seed)["pdo.a1_closure"].actual == 1


def _an_antisymmetric_defect(P, Q, prod):
    """The product plus c d1, with c = P[x1 d1] Q[x2 d2] - P[x2 d2] Q[x1 d1]:
    bilinear, above the grade of both grade-0 monomials, and zero whenever P is Q."""
    a, b = (1, 0, 1, 0), (0, 1, 0, 1)
    c = P.num.get(a, 0) * Q.num.get(b, 0) - P.num.get(b, 0) * Q.num.get(a, 0)
    if c:
        d1 = {(0, 0, 1, 0): c}
        return prod + pa.TruncatedOperator._trusted(d1, prod.den, prod.x_precision, prod.d_bound)
    return prod


def test_a1_certificate_catches_a_defect_that_cancels_in_a_square(monkeypatch):
    """The left and right grade operators are drawn apart: with one operator
    per grade, P_0 P_0 would hide this defect."""
    monkeypatch.setattr(pa, "_product_rows", _rows_with(_an_antisymmetric_defect))
    for seed in range(3):
        assert _run_law(pa._law_a1, seed)["pdo.a1_closure"].actual == 1


_REAL_SHEAR = pa.special_change


def _shear_with_x1_on_d2_powers(P, b, c, d):
    """special_change, except that the image of each d2^k gains x1 d2^k: no
    tail rises, but the P tops d2^2 and d2^3 stop being monic."""
    img = _REAL_SHEAR(P, b, c, d)
    ((key, _),) = P.num.items()
    if key[:3] == (0, 0, 0):
        x1 = {(1, 0, 0, key[3]): 1}
        return img + pa.TruncatedOperator._trusted(x1, 1, img.x_precision, img.d_bound)
    return img


def _shear_raising_one_tail(P, b, c, d):
    """special_change, except that the image of x1^2 x2^2 d1 d2 gains d2^2."""
    img = _REAL_SHEAR(P, b, c, d)
    if P.num == {(2, 2, 1, 1): 1}:
        d2 = {(0, 0, 0, 2): 1}
        return img + pa.TruncatedOperator._trusted(d2, 1, img.x_precision, img.d_bound)
    return img


@pytest.mark.parametrize(
    "mutant, want",
    [
        # both P tops fail against both Q tops
        (_shear_with_x1_on_d2_powers, 4),
        (_shear_raising_one_tail, 1),
    ],
    ids=["tops", "tail"],
)
def test_shear_certificate_catches_a_mutant(monkeypatch, mutant, want):
    monkeypatch.setattr(pa, "special_change", mutant)
    for seed in range(3):
        got = _run_law(pa._law_quasi_elliptic, seed)
        assert got["pdo.quasi_elliptic_preserved"].actual == want
