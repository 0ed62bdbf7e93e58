"""Euler-characteristic arithmetic: Riemann-Roch, adjunction, Noether."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from godeaux_cert import rr_engine as rr


def test_invariant_constants():
    assert (rr.GODEAUX.chi, rr.GODEAUX.K2, rr.GODEAUX.e) == (1, 1, 11)
    assert rr.GODEAUX.b2 == 9
    assert (rr.QUINTIC.chi, rr.QUINTIC.K2, rr.QUINTIC.e) == (5, 5, 55)
    assert rr.QUINTIC.pg == 4


def test_noether_enforced_in_constructor():
    with pytest.raises(ValueError):
        rr.SurfaceInvariants(chi=1, K2=2, e=11)
    with pytest.raises(ValueError):
        rr.SurfaceInvariants(chi=2, K2=1, e=23, q=0, pg=0)  # chi != 1 - q + pg
    for args in ((1.0, 1, 11), (1, 1, 11, 0.0), (1, 1, 11, 0, False)):
        with pytest.raises(TypeError, match="must be an int"):
            rr.SurfaceInvariants(*args)


def test_quotient_invariants():
    got = rr.quotient_invariants(rr.QUINTIC, 5)
    assert (got.chi, got.K2, got.e) == (1, 1, 11)
    with pytest.raises(ValueError):
        rr.quotient_invariants(rr.QUINTIC, 3)


def test_quotient_invariants_refuses_degree_zero():
    for deg in (0, -5):
        with pytest.raises(ValueError, match="deg must be positive"):
            rr.quotient_invariants(rr.QUINTIC, deg)
    for deg in (5.0, True):
        with pytest.raises(TypeError, match="deg must be an int"):
            rr.quotient_invariants(rr.QUINTIC, deg)


def test_divisor_parity_enforced():
    with pytest.raises(ValueError):
        rr.NumericalDivisor(0, 1)
    # 1.5 and 1.5 agree mod 2 and gave chi = 1.0
    for args in ((1.5, 1.5), (1, 1.0), (True, 1)):
        with pytest.raises(TypeError, match="must be an int"):
            rr.NumericalDivisor(*args)


def test_chi_divisor_examples():
    # D = K + E with D^2 = -1, D.K = 1 on the quotient surface
    assert rr.chi_divisor(rr.GODEAUX, rr.NumericalDivisor(-1, 1)) == 0
    # trivial divisor
    assert rr.chi_divisor(rr.GODEAUX, rr.NumericalDivisor(0, 0)) == 1


def test_adjunction_genus():
    assert rr.adjunction_genus(rr.NumericalDivisor(1, 1)) == 2
    assert rr.adjunction_genus(rr.NumericalDivisor(-2, 0)) == 0


def test_noether_euler():
    assert rr.noether_euler(1, 1) == 11
    assert rr.noether_euler(5, 5) == 55
    # (1.0, 1) read 11.0
    for args in ((1.0, 1), (1, 1.0), (True, 1), (1, False)):
        with pytest.raises(TypeError, match="must be an int"):
            rr.noether_euler(*args)


_divisors = st.builds(
    lambda a, k: rr.NumericalDivisor(a * 2 + (k % 2), k),
    st.integers(-20, 20),
    st.integers(-20, 20),
)


@given(_divisors)
def test_serre_symmetry(D):
    """chi(D) = chi(K - D): exact symmetry of the quadratic form."""
    s = rr.GODEAUX
    KmD = rr.NumericalDivisor(
        s.K2 - 2 * D.dot_K + D.self_int, s.K2 - D.dot_K
    )
    assert rr.chi_divisor(s, D) == rr.chi_divisor(s, KmD)


def test_hilbert_condition_on_the_standard_pair():
    D = rr.NumericalDivisor(-1, 1)
    C = rr.NumericalDivisor(1, 1)
    assert rr.prespectral_hilbert_check(D, C, d_dot_c=1, n_max=10)


def test_hilbert_condition_fails_off_pattern():
    D = rr.NumericalDivisor(0, 0)
    C = rr.NumericalDivisor(1, 1)
    assert not rr.prespectral_hilbert_check(D, C, d_dot_c=0, n_max=3)


def test_hilbert_condition_refuses_empty_range():
    # D^2 = 3 fails at n = 0, so a negative n_max must not read as a pass,
    # and fewer than three values cannot pin the quadratic
    D = rr.NumericalDivisor(3, 1)
    C = rr.NumericalDivisor(1, 1)
    for n_max in (0, 1, -1, -5):
        with pytest.raises(ValueError, match="n_max"):
            rr.prespectral_hilbert_check(D, C, 1, n_max)
    for d_dot_c, n_max in ((1, 10.0), (1, True), (1.0, 10)):
        with pytest.raises(TypeError, match="must be an int"):
            rr.prespectral_hilbert_check(D, C, d_dot_c, n_max)
    # read True with float d_dot_c and n_max
    with pytest.raises(TypeError, match="must be an int"):
        rr.prespectral_hilbert_check(rr.NumericalDivisor(-1, 1), C, 1.0, 10.0)


def _per_n_hilbert_check(D, C, d_dot_c, n_max):
    """Oracle: the condition tested at each n = 0..n_max in turn."""
    for n in range(n_max + 1):
        mult = n + 1
        sq = D.self_int + 2 * mult * d_dot_c + mult * mult * C.self_int
        dk = D.dot_K + mult * C.dot_K
        if rr.GODEAUX.chi + (sq - dk) // 2 != (n + 1) * (n + 2) // 2:
            return False
    return True


def _hilbert_input(c_k, d_k, slips):
    """Numerics that pass the Hilbert condition for every n, then shifted.

    The condition holds for all n exactly when C^2 = 1, 2 D.C - C.K = 1 and
    D^2 - D.K = -2.  The slips move C^2 (and C.K with it, to keep the
    parity), D.C, and D^2 (by twice the slip); nonzero slips give inputs
    that fail at some n, not always at n = 0.
    """
    C = rr.NumericalDivisor(1 + slips[0], 2 * c_k + 1 + slips[0])
    D = rr.NumericalDivisor(2 * d_k - 2 + 2 * slips[2], 2 * d_k)
    return D, C, c_k + 1 + slips[1]


def test_hilbert_check_matches_loop():
    seen_fail_after_zero = False
    for c_k, d_k in itertools.product((-2, 0, 3), repeat=2):
        for slips in itertools.product((-2, -1, 0, 1, 2), repeat=3):
            D, C, dc = _hilbert_input(c_k, d_k, slips)
            # a quadratic in n with three zeros is zero: n_max = 2 decides every n
            assert rr.prespectral_hilbert_check(D, C, dc, 2) == _per_n_hilbert_check(
                D, C, dc, 60
            )
            for n_max in range(13):
                expected = _per_n_hilbert_check(D, C, dc, n_max)
                if slips == (0, 0, 0):
                    assert expected
                seen_fail_after_zero |= _per_n_hilbert_check(D, C, dc, 0) and not expected
                if n_max < 2:
                    with pytest.raises(ValueError, match="n_max"):
                        rr.prespectral_hilbert_check(D, C, dc, n_max)
                else:
                    assert rr.prespectral_hilbert_check(D, C, dc, n_max) == expected
    assert seen_fail_after_zero


def test_growth_check():
    assert rr.growth_check(rr.NumericalDivisor(1, 1), m_max=10)
    # a curve class with C^2 = 4 grows with leading coefficient 2, not 1/2
    assert not rr.growth_check(rr.NumericalDivisor(4, 2), m_max=5)
    with pytest.raises(ValueError):
        rr.growth_check(rr.NumericalDivisor(1, 1), m_max=2)
    with pytest.raises(TypeError, match="m_max must be an int"):
        rr.growth_check(rr.NumericalDivisor(1, 1), m_max=10.5)


def _fraction_growth_check(C, m_max):
    """Oracle: fit a quadratic through m = 1, 2, 3 with Fractions, confirm it
    reproduces every value up to m_max, and require leading coefficient 1/2."""

    def chi_m(m):
        return rr.chi_divisor(rr.GODEAUX, rr.NumericalDivisor(m * m * C.self_int, m * C.dot_K))

    y1, y2, y3 = (Fraction(chi_m(m)) for m in (1, 2, 3))
    # Newton's forward differences at m = 1, 2, 3.
    lead = (y3 - 2 * y2 + y1) / 2
    lin = (y2 - y1) - 3 * lead
    const = y1 - lead - lin
    for m in range(1, m_max + 1):
        if lead * m * m + lin * m + const != chi_m(m):
            return False
    return lead == Fraction(1, 2)


@given(
    st.builds(
        lambda sq, k: rr.NumericalDivisor(sq, 2 * k + sq % 2),
        st.integers(-6, 6),
        st.integers(-10, 10),
    ),
    st.integers(3, 12),
)
def test_growth_check_matches_fraction_fit(C, m_max):
    assert rr.growth_check(C, m_max) == _fraction_growth_check(C, m_max)


def test_chi_curve_sheaf():
    assert rr.chi_curve_sheaf(2, 2) == 1
    assert rr.chi_curve_sheaf(0, 0) == 1
    assert rr.chi_curve_sheaf(5, 2) == 4  # above canonical degree: h0 = n - g + 1
    with pytest.raises(ValueError):
        rr.chi_curve_sheaf(-1, 2)
    for args in ((2.5, 2), (2, 2.0), (True, 1)):
        with pytest.raises(TypeError, match="must be an int"):
            rr.chi_curve_sheaf(*args)
