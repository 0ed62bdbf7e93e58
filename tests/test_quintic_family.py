"""Invariant quintic family: monomials, symmetry, freeness, smoothness."""

import math
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from godeaux_cert import quintic_family as qf
from oracles import epsilon_power_invariance, field_member, field_route_singular, fixed_points

FERMAT = (1, 0, 0, 0, 0, 0, 0, 1, 1, 1, 0, 0)


def _surface_calls(a):
    return (
        lambda: qf.free_action_check(a, 11),
        lambda: qf.smoothness_check(a, 11),
        lambda: qf.transversality_check(a, 1, 11),
    )


@pytest.mark.parametrize("bad", [Fraction(1, 2), 1.0, True])
def test_surface_checks_refuse_non_int_coefficients(bad):
    """int() read 1/2 as 0 although it is 6 in F_11, and a float or a bool
    is not an exact integer coefficient.  The refusal names the entry, also
    when it is the last one: the one reducing pass leaves a non-int out."""
    for a in ([bad, *FERMAT[1:]], [*FERMAT[:11], bad]):
        for call in _surface_calls(a):
            with pytest.raises(TypeError, match=re.escape(f"coefficient must be an int, got {bad!r}")):
                call()


def test_surface_checks_refuse_a_float_prime():
    assert qf.free_action_check(FERMAT, 11)
    for func in (qf.free_action_check, qf.smoothness_check):
        with pytest.raises(TypeError, match="modulus must be an int, got 11.0"):
            func(FERMAT, 11.0)


def test_the_length_is_refused_before_the_type():
    for call in _surface_calls([*FERMAT, 1.0]):
        with pytest.raises(ValueError, match="need 12 coefficients, got 13"):
            call()


def test_enumerate_monomials_is_canonical():
    mons = qf.enumerate_monomials()
    assert len(mons) == 12
    assert mons[0] == (5, 0, 0, 0)
    assert mons == qf._MONOMIAL_ORDER
    for n in mons:
        assert sum(n) == 5
        assert sum((i + 1) * v for i, v in enumerate(n)) % 5 == 0


def test_enumeration_is_exhaustive():
    # every composition of 5 into 4 parts outside the list fails the
    # weighted-sum condition
    for n1 in range(6):
        for n2 in range(6 - n1):
            for n3 in range(6 - n1 - n2):
                n = (n1, n2, n3, 5 - n1 - n2 - n3)
                w = sum((i + 1) * v for i, v in enumerate(n)) % 5
                assert (n in qf._MONOMIAL_ORDER) == (w == 0)


def test_invariance_generator_always_true():
    g = qf.GroupElement.generator()
    assert qf.invariance_check(FERMAT, g, 11)
    assert qf.invariance_check([1] * 12, g, 31)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 10), min_size=12, max_size=12).filter(lambda a: any(v % 11 for v in a)))
def test_invariance_generator_random_members(a):
    assert qf.invariance_check(a, qf.GroupElement.generator(), 11)


def test_invariance_fails_for_unbalanced_weights():
    # weights (1,0,0,0): the Fermat member still scales uniformly (by 1),
    # but a member mixing z1-degrees does not
    g = qf.GroupElement((1, 0, 0, 0))
    assert qf.invariance_check(FERMAT, g, 11)
    perturbed = list(FERMAT)
    perturbed[1] = 1  # adds z1^3 z3 z4, z1-degree 3 vs 5 and 0
    assert not qf.invariance_check(perturbed, g, 11)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from((11, 31, 41)),
    st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=12, max_size=12),
    st.tuples(*[st.integers(-12, 12)] * 4),
)
def test_invariance_matches_epsilon_powers(q, a, weights):
    """Two terms pick up one scalar exactly when their weighted sums agree
    mod 5, as eps is primitive: the weight route equals comparing eps powers."""
    assume(any(v % q for v in a))
    g = qf.GroupElement(weights)
    assert qf.invariance_check(a, g, q) == epsilon_power_invariance(a, g, q)


def test_group_element_reduces_weights_and_refuses_three():
    assert qf.GroupElement((6, 7, -2, 9)).weights == (1, 2, 3, 4)
    assert qf.GroupElement((10, 5, 0, 15)).weights == (0, 0, 0, 0)
    # the argument is read once, so an iterator serves as well as a tuple
    assert qf.GroupElement(iter([6, 7, -2, 9])).weights == (1, 2, 3, 4)
    with pytest.raises(ValueError, match="need 4 weights"):
        qf.GroupElement((1, 2, 3))


@pytest.mark.parametrize("bad", [1.5, True, "1", Fraction(1)])
def test_group_element_refuses_a_non_int_weight(bad):
    """1.5 % 5 made invariance_check(FERMAT, g, 11) return False, True was
    read as weight 1, and "1" % 5 raised a string-formatting TypeError."""
    with pytest.raises(TypeError, match=re.escape(f"weight must be an int, got {bad!r}")):
        qf.GroupElement((bad, 2, 3, 4))
    with pytest.raises(TypeError, match="weight must be an int"):
        qf.GroupElement((1, 2, 3, bad))


def test_fixed_points_match_brute_force():
    # the free-action table evaluates at exactly the points the scan finds
    for weights in ((1, 2, 3, 4), (2, 4, 1, 3)):
        assert fixed_points(qf.GroupElement(weights), 11) == qf._COORDINATE_POINTS


def test_free_action_fermat_true():
    assert qf.free_action_check(FERMAT, 11)
    assert qf.free_action_check([1] * 12, 11)


def test_free_action_refuses_eleven_coefficients():
    with pytest.raises(ValueError, match="need 12 coefficients, got 11"):
        qf.free_action_check([1] * 11, 11)


def test_free_action_refuses_vanishing_coefficients():
    with pytest.raises(ValueError, match="all coefficients vanish"):
        qf.free_action_check([0] * 12, 11)
    with pytest.raises(ValueError, match="all coefficients vanish"):
        qf.free_action_check([11] * 12, 11)  # all zero after reduction


def test_free_action_refuses_q5():
    """In characteristic 5 the only fifth root of unity is 1, so the symmetry
    is the identity and fixes every point: True would be a wrong verdict."""
    with pytest.raises(ValueError, match="q = 5 has no primitive fifth root of unity"):
        qf.free_action_check(FERMAT, 5)


@pytest.mark.parametrize("q", [2, 3, 7, 13])
def test_free_action_keeps_its_verdict_at_q_not_1_mod_5(q):
    """Over the algebraic closure of F_q, q != 5, the fixed points are still
    the four coordinate points, so the pure powers decide."""
    assert qf.free_action_check(FERMAT, q)
    for i in qf.PURE_POWER_INDICES:
        a = list(FERMAT)
        a[i] = q
        assert not qf.free_action_check(a, q)


def test_free_action_fails_without_pure_power():
    a = list(FERMAT)
    a[0] = 0
    assert not qf.free_action_check(a, 11)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(0, 30), min_size=12, max_size=12).filter(lambda a: any(v % 31 for v in a)))
def test_free_action_routes_agree(a):
    """Evaluation at the fixed points matches the pure-power criterion."""
    assert qf.free_action_check(a, 31) == all(a[i] % 31 for i in qf.PURE_POWER_INDICES)


@settings(max_examples=100, deadline=None)
@given(st.sampled_from((11, 31)), st.lists(st.integers(0, 30), min_size=12, max_size=12))
def test_free_action_matches_mod_q_evaluation_route(q, a):
    assume(any(v % q for v in a))
    f = field_member(a, q)
    points = fixed_points(qf.GroupElement.generator(), q)
    assert qf.free_action_check(a, q) == all(f.eval(p) % q for p in points)


def _prod_route_free_action(a, q):
    """Oracle: evaluate every monomial at every fixed point with math.prod."""
    coeffs = [v % q for v in a]
    return all(
        sum(c * math.prod(map(pow, pt, exps)) for c, exps in zip(coeffs, qf._MONOMIAL_ORDER)) % q
        for pt in fixed_points(qf.GroupElement.generator(), q)
    )


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from((11, 31, 41)),
    st.lists(st.one_of(st.just(0), st.integers(-50, 50)), min_size=12, max_size=12),
)
def test_free_action_table_matches_prod_route(q, a):
    """The monomial-value table gives the verdict of per-point evaluation."""
    assume(any(v % q for v in a))
    assert qf.free_action_check(a, q) == _prod_route_free_action(a, q)


def test_smoothness_fermat_multi_prime():
    for q in (11, 31):
        assert qf.smoothness_check(FERMAT, q)


def test_smoothness_rejects_degenerate_member():
    a = [0] * 12
    a[0] = 1  # z1^5 = 0 is non-reduced
    assert not qf.smoothness_check(a, 11)


def test_field_route_calls_the_golden_members():
    """The int oracle is not vacuous: the golden singular member, singular at
    (1:1:1:1) by construction, is singular at q = 11 and 31, and the Fermat
    member is smooth at both."""
    singular0 = (-1, 2, -1, 5, 4, -5, -8, -1, 6, 7, -3, -5)
    for q in (11, 31):
        assert field_route_singular(singular0, q)
        assert not field_route_singular(FERMAT, q)


def test_smoothness_agrees_with_field_route():
    cases = [FERMAT, [1] * 12, [1, 2, 0, 0, 3, 0, 0, 1, 4, 1, 0, 0]]
    for a in cases:
        assert qf.smoothness_check(a, 11) == (not field_route_singular(a, 11))


def _singular_at_ones(free):
    """Set the pure-power coefficients so every partial vanishes at (1:1:1:1) mod 11.

    The z_j-partial there is sum_i a_i n_ij, and among the pure powers only
    z_j^5 has a nonzero z_j-exponent (5), so that sum fixes its coefficient.
    """
    a = [0] * 12
    others = [i for i in range(12) if i not in qf.PURE_POWER_INDICES]
    for i, v in zip(others, free):
        a[i] = v
    for j, idx in enumerate(qf.PURE_POWER_INDICES):
        s = sum(a[i] * qf._MONOMIAL_ORDER[i][j] for i in others)
        a[idx] = -s * pow(5, -1, 11) % 11
    return a


_DENSE = st.lists(st.integers(1, 10), min_size=12, max_size=12)
_SPARSE = st.dictionaries(st.integers(0, 11), st.integers(1, 10), min_size=1, max_size=4).map(
    lambda d: [d.get(i, 0) for i in range(12)]
)
_SINGULAR = st.lists(st.integers(0, 10), min_size=8, max_size=8).map(_singular_at_ones)


@settings(max_examples=30, deadline=None)
@given(st.one_of(_DENSE, _SPARSE, _SINGULAR))
def test_partials_only_scan_matches_field_route(a):
    """The scan reads only the partials; the oracle also evaluates f."""
    assume(any(a))
    assert qf.smoothness_check(a, 11) == (not field_route_singular(a, 11))
    for plane in range(1, 5):
        assert qf.transversality_check(a, plane, 11) == (not field_route_singular(a, 11, plane))


def _diagonal_members():
    """One member per nonempty support of the pure powers, its other
    coefficients multiples of 11, and a member dense over Z but diagonal mod 11."""
    values = (-3, 7, -1, 2)
    members = []
    for mask in range(1, 16):
        a = [11 * (i % 3 - 1) for i in range(12)]
        for j, idx in enumerate(qf.PURE_POWER_INDICES):
            a[idx] = values[j] if mask >> j & 1 else -22
        members.append(a)
    dense = [11 * (i + 1) for i in range(12)]
    for j, idx in enumerate(qf.PURE_POWER_INDICES):
        dense[idx] = values[j]
    members.append(dense)
    return members


@pytest.mark.parametrize("a", _diagonal_members())
def test_diagonal_closed_form_matches_field_route(a):
    """A member diagonal mod q is decided without a scan; the oracle scans."""
    assert qf.smoothness_check(a, 11) == (not field_route_singular(a, 11))
    for plane in range(1, 5):
        assert qf.transversality_check(a, plane, 11) == (not field_route_singular(a, 11, plane))


def test_diagonal_members_scan_no_point_and_others_scan_as_before(monkeypatch):
    """Count the points the singular scans draw from iter_projective_coords."""
    scanned = [0]
    real = qf.iter_projective_coords

    def counting(q, dim):
        for pt in real(q, dim):
            scanned[0] += 1
            yield pt

    monkeypatch.setattr(qf, "iter_projective_coords", counting)
    for q in (11, 31, 41):
        assert qf.smoothness_check(FERMAT, q)
        assert all(qf.transversality_check(FERMAT, plane, q) for plane in range(1, 5))
    assert scanned[0] == 0
    # dense0 of the benchmark panel is smooth and transversal at q = 11:
    # every scan runs to the end, 1,464 + 4 * 133 points
    dense0 = (5, 6, 9, 1, 8, 4, 1, 3, 2, 6, 8, 4)
    assert qf.smoothness_check(dense0, 11)
    assert all(qf.transversality_check(dense0, plane, 11) for plane in range(1, 5))
    assert scanned[0] == 1996
    # singular0 is singular at (1:1:1:1): its scan stops there
    scanned[0] = 0
    assert not qf.smoothness_check((-1, 2, -1, 5, 4, -5, -8, -1, 6, 7, -3, -5), 11)
    assert 0 < scanned[0] < 1464


def test_singular_scans_reject_q5():
    with pytest.raises(ValueError):
        qf.smoothness_check(FERMAT, 5)
    for plane in range(1, 5):
        with pytest.raises(ValueError):
            qf.transversality_check(FERMAT, plane, 5)


def test_transversality_fermat_all_planes():
    for plane in range(1, 5):
        assert qf.transversality_check(FERMAT, plane, 11)


def test_transversality_degenerate():
    a = [0] * 12
    a[0] = 1
    assert not qf.transversality_check(a, 2, 11)


def test_transversality_detects_lost_pure_power():
    # drop z2^5: the restriction to z1 = 0 becomes z3^5 + z4^5 + ...,
    # compare against the generic smooth answer of the full Fermat member
    a = list(FERMAT)
    a[7] = 0
    # restriction to z1=0 is z3^5 + z4^5, a quintic with a singular point
    # at (1:0:0) in the plane coordinates (z2:z3:z4)
    assert not qf.transversality_check(a, 1, 11)


def test_transversality_rejects_bad_plane_index():
    with pytest.raises(ValueError):
        qf.transversality_check(FERMAT, 0, 11)
    with pytest.raises(ValueError):
        qf.transversality_check(FERMAT, 5, 11)


@pytest.mark.parametrize("plane", [True, 1.0, "1", Fraction(1)])
def test_transversality_refuses_a_non_int_plane_index(plane):
    """True was read as plane 1, and 1.0 died in a slice with a bare
    tuple-index error that named no argument."""
    with pytest.raises(TypeError, match=re.escape(f"plane_index must be an int, got {plane!r}")):
        qf.transversality_check(FERMAT, plane, 11)


def test_family_dimension():
    assert qf.weight_difference_rank() == 3
    assert qf.family_dimension() == 8


def test_invariant_hyperplanes_are_coordinate_planes():
    planes = qf.invariant_hyperplanes(qf.GroupElement.generator())
    assert planes == (
        (1, 0, 0, 0),
        (0, 1, 0, 0),
        (0, 0, 1, 0),
        (0, 0, 0, 1),
    )


def test_invariant_hyperplane_count_matches_brute_force():
    # The hyperplane sum(c_j z_j) = 0 is carried to itself by g exactly when
    # (eps^{w_j} c_j) is proportional to c, which is the condition for the
    # point c to be fixed by g: so the invariant hyperplanes of P^3(F_q)
    # are counted by the fixed points.
    g = qf.GroupElement.generator()
    assert len(fixed_points(g, 11)) == len(qf.invariant_hyperplanes(g)) == 4


@pytest.mark.parametrize("weights", [(1, 1, 3, 4), (2, 4, 2, 2), (0, 0, 0, 0)])
def test_invariant_hyperplane_families_match_brute_force(weights):
    """A family whose form has k ones is a P^{k-1} of fixed planes, with
    (q^k - 1)/(q - 1) points over F_q; the brute-force scan counts them all."""
    q, g = 11, qf.GroupElement(weights)
    families = qf.invariant_hyperplanes(g)
    assert sorted(map(sum, families)) == sorted(weights.count(w) for w in set(weights))
    assert all(len({w for w, c in zip(weights, form) if c}) == 1 for form in families)
    assert len(fixed_points(g, q)) == sum((q ** sum(form) - 1) // (q - 1) for form in families)
