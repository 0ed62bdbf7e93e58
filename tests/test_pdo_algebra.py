"""Truncated operator ring: product, orders, symbols, substitutions."""

import math
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from godeaux_cert import pdo_algebra as pa

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


def test_component_reassembly():
    rng = Random(7)
    for _ in range(50):
        P = pa.random_operator(rng, T)
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
        P = pa.random_operator(rng, T40)
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
    """Oracle: random_operator with Fraction coefficients through the constructor."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        i1 = rng.randint(0, 2)
        i2 = rng.randint(0, 2 - i1)
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        num = rng.choice(_NONZERO_3)
        coeffs[(i1, i2, k1, k2)] = Fraction(num, rng.randint(1, 3))
    op = pa.TruncatedOperator(coeffs, x_precision, 2)
    return op if not op.is_zero else pa.TruncatedOperator.one(x_precision)


def _fraction_random_a1_operator(rng, x_precision, m):
    """Oracle: _random_a1_operator with Fraction coefficients through the constructor."""
    coeffs = {}
    for _ in range(rng.randint(1, 4)):
        k1 = rng.randint(0, 2)
        k2 = rng.randint(0, 2 - k1)
        lo = max(k1 + k2 - m, 0)
        i1 = rng.randint(lo, lo + 2)
        i2 = rng.randint(0, 2)
        num = rng.choice(_NONZERO_3)
        coeffs[(i1, i2, k1, k2)] = Fraction(num, rng.randint(1, 3))
    op = pa.TruncatedOperator(coeffs, x_precision, 2)
    return op if not op.is_zero else pa.TruncatedOperator.one(x_precision)


def _fraction_random_graded_monic(rng, x_precision):
    """Oracle: _random_graded_monic with Fraction coefficients through the constructor."""
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
    """Oracle: _random_normalized_pair with Fraction coefficients through the constructor."""
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


def test_generators_match_fraction_oracles():
    """Same terms in the same order, same budgets, and the Random left in the same state.

    The draws are part of the report: eq_seen is printed in a reference string.
    """
    for seed in range(200):
        T = (1, 2, 3, 12)[seed % 4]
        cases = (
            (pa.random_operator, _fraction_random_operator, (T,)),
            (pa._random_a1_operator, _fraction_random_a1_operator, (T, seed % 3)),
            (pa._random_graded_monic, _fraction_random_graded_monic, (T,)),
            (pa._random_normalized_pair, _fraction_random_normalized_pair, (T,)),
        )
        for gen, oracle, args in cases:
            rng, twin = Random(seed), Random(seed)
            got, want = gen(rng, *args), oracle(twin, *args)
            assert rng.getstate() == twin.getstate()
            got = got if isinstance(got, tuple) else (got,)
            want = want if isinstance(want, tuple) else (want,)
            for g, w in zip(got, want, strict=True):
                assert g.coeffs == w.coeffs
                assert list(g.coeffs) == list(w.coeffs)
                assert (g.x_precision, g.d_bound) == (w.x_precision, w.d_bound)
                _assert_trusted_invariants(g)


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


def _assert_trusted_invariants(R):
    """What the public constructor would have enforced, and the canonical form."""
    assert all(isinstance(v, Fraction) and v != 0 for v in R.coeffs.values())
    assert all(i1 + i2 < R.x_precision for (i1, i2, _, _) in R.coeffs)
    assert max((k1 + k2 for (_, _, k1, k2) in R.coeffs), default=0) <= R.d_bound
    assert all(type(n) is int and n != 0 for n in R.num.values())
    assert type(R.den) is int and R.den > 0
    assert math.gcd(R.den, *R.num.values()) == 1


@settings(max_examples=300, deadline=None)
@given(_operators(), _operators())
def test_op_mul_matches_fraction_oracle(P, Q):
    try:
        want = _fraction_op_mul(P, Q)
    except pa.PrecisionError:
        with pytest.raises(pa.PrecisionError):
            pa.op_mul(P, Q)
        return
    got = pa.op_mul(P, Q)
    assert got.coeffs == want.coeffs
    # same key order too: dict-valued report entries print in this order
    assert list(got.coeffs) == list(want.coeffs)
    assert (got.x_precision, got.d_bound) == (want.x_precision, want.d_bound)
    _assert_trusted_invariants(got)


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


def test_quasi_ellipticity_preserved_by_shear():
    rng = Random(3)
    for _ in range(30):
        P, Q = pa._random_normalized_pair(rng, T)
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


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        pa.parse_operator("x3", T)
    with pytest.raises(ValueError):
        pa.parse_operator("d1 -", T)


def test_property_suite_small_run_is_green():
    entries = pa.run_property_suite(trials=40, seed=11)
    assert entries
    assert all(e.status == "pass" for e in entries)
