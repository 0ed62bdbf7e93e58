"""Lattice model: roots, Gram data, divisor counting, orbit partition."""

import operator

import pytest
from hypothesis import given, strategies as st

from godeaux_cert import picard_lattice as pl
from godeaux_cert import rr_engine
from oracles import fraction_elimination


def test_vector_validation():
    with pytest.raises(ValueError):
        pl.E8Vector((1,) * 7)
    with pytest.raises(ValueError):
        pl.E8Vector((1, 2, 0, 0, 0, 0, 0, 1))  # mixed parity
    with pytest.raises(ValueError):
        pl.E8Vector((2, 0, 0, 0, 0, 0, 0, 0))  # sum 2, not 0 mod 4
    # a half or a truth value is not a doubled coordinate: (0.5,) * 8 had norm -0.0
    for c in ((0.5,) * 8, (True,) * 8, (2.0, 2, 0, 0, 0, 0, 0, 0)):
        with pytest.raises(TypeError, match="coordinate must be an int"):
            pl.E8Vector(c)
    for k, t in ((1.5, 0), (1, 2.5), (True, 0), (1, False)):
        with pytest.raises(TypeError, match="must be an int"):
            pl.PicardClass(k, pl.E8_ZERO, t)
    # a bare coordinate tuple failed only later, in pair or numerics
    for e in ((0,) * 8, [0] * 8, None):
        with pytest.raises(TypeError, match="e must be an E8Vector"):
            pl.PicardClass(1, e, 0)


def test_root_count_and_norms():
    roots = pl.e8_roots()
    assert len(roots) == 240
    assert all(r.norm == -2 for r in roots)


def test_root_count_by_shape():
    roots = pl.e8_roots()
    doubled = [r for r in roots if any(abs(c) == 2 for c in r.c)]
    half = [r for r in roots if all(abs(c) == 1 for c in r.c)]
    assert len(doubled) == 112
    assert len(half) == 128
    assert len(doubled) + len(half) == 240


def test_roots_closed_under_negation():
    roots = set(pl.e8_roots())
    assert all(pl.E8Vector(tuple(-x for x in r.c)) in roots for r in roots)


def test_negation_reverses_root_order():
    """The fact the orbit build pairs roots by: root 239 - i is -(root i)."""
    roots = pl.e8_roots()
    assert all(roots[239 - i].c == tuple(-x for x in roots[i].c) for i in range(240))


_vec = st.sampled_from(pl.e8_roots())


@given(_vec, _vec)
def test_pairing_symmetric_and_bounded(u, v):
    assert u.dot(v) == v.dot(u)
    # Cauchy-Schwarz in the (positive) doubled form: |<u,v>| <= 2 for roots
    assert abs(u.dot(v)) <= 2


@given(_vec, _vec, _vec)
def test_pairing_bilinear_on_sums(u, v, w):
    s = pl.E8Vector(tuple(a + b for a, b in zip(u.c, v.c)))
    assert s.dot(w) == u.dot(w) + v.dot(w)


def test_root_pairings_are_divisible_by_four():
    roots = pl.e8_roots()
    assert all(sum(map(operator.mul, u.c, v.c)) % 4 == 0 for u in roots for v in roots)


_ODD_ROOTS = [r for r in pl.e8_roots() if r.c[0] % 2]


@st.composite
def _root_sums(draw):
    """A sum of 1-7 roots whose doubled coordinates have the drawn parity."""
    odd = draw(st.booleans())
    roots = draw(st.lists(_vec, min_size=1, max_size=6))
    if sum(r.c[0] % 2 for r in roots) % 2 != odd:
        roots.append(draw(st.sampled_from(_ODD_ROOTS)))
    v = pl.E8Vector(tuple(map(sum, zip(*(r.c for r in roots)))))
    assert v.c[0] % 2 == odd
    return v


@given(_root_sums(), _root_sums())
def test_pairing_of_root_sums_is_integral(u, v):
    s = sum(map(operator.mul, u.c, v.c))
    assert s % 4 == 0
    assert u.dot(v) * -4 == s


def test_gram_determinant_unimodular():
    gram = pl.gram_matrix(pl.SIMPLE_ROOTS)
    assert abs(fraction_elimination(gram)[1]) == 1


def test_simple_roots_are_roots():
    root_set = set(pl.e8_roots())
    assert all(r in root_set for r in pl.SIMPLE_ROOTS)


def test_lattice_checks_all_pass():
    entries = pl.lattice_checks()
    assert all(e.status == "pass" for e in entries)
    ids = {e.check_id for e in entries}
    assert "lattice.gram_det" in ids
    assert "lattice.picard_rank" in ids


def test_lattice_checks_read_a_zero_leading_minor_as_indefinite(monkeypatch):
    """The negated Gram matrix H + I_6, with H = [[0, 1], [1, 0]], is
    unimodular but indefinite; its first leading minor is 0, so elimination
    exchanges a row, after which every pivot is positive."""
    gram = [[0] * 8 for _ in range(8)]
    gram[0][1] = gram[1][0] = -1
    for i in range(2, 8):
        gram[i][i] = -1
    monkeypatch.setattr(pl, "gram_matrix", lambda basis: gram)
    actual = {e.check_id: e.actual for e in pl.lattice_checks()}
    assert actual["lattice.negative_definite"] is False
    assert actual["lattice.gram_det"] == 1


def test_divisor_candidates_count_and_numerics():
    cands = pl.divisor_candidates()
    assert len(cands) == 1200
    K = pl.CANONICAL
    for E in cands[:25] + cands[-25:]:
        assert E.pair(E) == -2
        assert E.pair(K) == 0


def test_divisors_have_expected_numerics():
    for D in pl.divisors()[:50]:
        assert D.pair(D) == -1
        assert D.pair(pl.CANONICAL) == 1
        assert rr_engine.chi_divisor(rr_engine.GODEAUX, D.numerics) == 0


def test_cached_numerics_match_pairings():
    """numerics is (D^2, D.K), kept on the instance after the first read."""
    classes = pl.divisors() + tuple(pl.divisor_candidates()) + pl.canonical_curves()
    for D in classes:
        assert D.numerics == rr_engine.NumericalDivisor(D.pair(D), D.pair(pl.CANONICAL))
        assert D.numerics is D.numerics


def test_divisor_tables_are_built_once():
    """The shared tuples equal a fresh build, and every call returns the same object."""
    fresh = tuple(pl.PicardClass(1, c.e, c.t) for c in pl.divisor_candidates())
    assert pl.divisors() == fresh
    assert pl.divisors() is pl.divisors()
    curves = tuple(pl.PicardClass(1, pl.E8_ZERO, t) for t in range(1, 5))
    assert pl.canonical_curves() == curves
    assert pl.canonical_curves() is pl.canonical_curves()
    assert pl.partition_orbits() == pl._partition_orbits.__wrapped__()
    assert pl.partition_orbits() is pl.partition_orbits()
    assert pl.e8_roots() == pl._e8_roots.__wrapped__()
    assert pl.e8_roots() is pl.e8_roots()


def test_orbit_partition():
    orbits = pl.partition_orbits()
    assert len(orbits) == 120
    assert all(type(o.members) is tuple and len(o.members) == 10 for o in orbits)
    seen = set()
    for o in orbits:
        assert not (set(o.members) & seen)
        seen |= set(o.members)
    assert len(seen) == 1200


def test_orbit_structure_contains_both_signs_and_all_torsion():
    orbit = pl.partition_orbits()[0]
    es = {m.e for m in orbit.members}
    ts = {m.t for m in orbit.members}
    assert len(es) == 2
    e1, e2 = es
    assert e1.c == tuple(-x for x in e2.c)
    assert ts == {0, 1, 2, 3, 4}


def test_theorem_counts():
    counts = pl.theorem_counts()
    assert counts == {
        "candidates": 1200,
        "good_lower_bound": 1080,
        "excellent_lower_bound": 840,
    }


def test_verify_divisor_conditions():
    D = pl.divisors()[0]
    C = pl.canonical_curves()[0]
    entries = pl.verify_divisor_conditions(D, C)
    assert all(e.status == "pass" for e in entries)


def test_verify_divisor_conditions_rejects_bad_inputs():
    C = pl.canonical_curves()[0]
    root, t = pl.e8_roots()[0], 2
    message = "D - K must be a root"
    with pytest.raises(ValueError, match=message):
        pl.verify_divisor_conditions(pl.CANONICAL, C)  # D - K = 0, not a root
    with pytest.raises(ValueError, match=message):
        pl.verify_divisor_conditions(pl.PicardClass(0, root, t), C)  # K-part -1
    with pytest.raises(ValueError, match=message):
        pl.verify_divisor_conditions(pl.PicardClass(2, root, t), C)  # K-part 1
    with pytest.raises(ValueError, match="canonical class"):
        pl.verify_divisor_conditions(pl.divisors()[0], pl.divisors()[0])


def _orbits_oracle():
    """The orbit partition built with validated negation, the members of each
    orbit listed in divisor order."""
    buckets = {}
    for d in pl.divisors():
        neg = pl.E8Vector(tuple(-x for x in d.e.c))
        buckets.setdefault(min(d.e.c, neg.c), []).append(d)
    return tuple(pl.DivisorClassOrbit(tuple(v)) for _, v in sorted(buckets.items()))


def test_orbits_match_validated_oracle():
    assert pl._partition_orbits.__wrapped__() == _orbits_oracle()


def test_orbit_build_hashes_no_picard_class(monkeypatch):
    """The orbits slice divisors() by position, pairing the five classes of a
    root with the five of its negation, and store them as tuples, so building
    them never hashes a class."""
    pl.divisors()

    def refuse(self):
        raise AssertionError("PicardClass hashed")

    monkeypatch.setattr(pl.PicardClass, "__hash__", refuse)
    assert len(pl._partition_orbits.__wrapped__()) == 120


@given(st.integers(-5, 5), _root_sums(), st.integers(0, 4))
def test_numerics_match_pairings_for_any_k(k, e, t):
    D = pl.PicardClass(k, e, t)
    assert D.numerics == rr_engine.NumericalDivisor(D.pair(D), D.pair(pl.CANONICAL))


def _count_constructions(monkeypatch):
    """Count every __init__ of PicardClass and E8Vector from now on."""
    counts = {pl.PicardClass: 0, pl.E8Vector: 0}
    for cls in counts:
        real = cls.__init__

        def counted(self, *args, cls=cls, real=real):
            counts[cls] += 1
            real(self, *args)

        monkeypatch.setattr(cls, "__init__", counted)
    return counts


def test_cold_tables_build_no_throwaway_objects(monkeypatch):
    """Once the roots exist, the divisors take one PicardClass each, and
    the orbits and the lattice checks validate no E8Vector."""
    pl.e8_roots()
    pl.divisors()
    counts = _count_constructions(monkeypatch)
    assert len(pl._divisors.__wrapped__()) == 1200
    assert counts == {pl.PicardClass: 1200, pl.E8Vector: 0}
    counts[pl.PicardClass] = 0
    assert len(pl._partition_orbits.__wrapped__()) == 120
    assert all(e.status == "pass" for e in pl.lattice_checks())
    assert counts == {pl.PicardClass: 0, pl.E8Vector: 0}
