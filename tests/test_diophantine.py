"""Bounded enumeration solvers against raw double-loop oracles."""

from godeaux_cert import diophantine as dio
from godeaux_cert.quintic_family import enumerate_monomials


def test_monomial_system_matches_family_listing():
    assert dio.solve_monomial_system() == frozenset(enumerate_monomials())


def test_monomial_system_oracle():
    oracle = set()
    for n1 in range(6):
        for n2 in range(6):
            for n3 in range(6):
                for n4 in range(6):
                    if n1 + n2 + n3 + n4 == 5 and (n1 + 2 * n2 + 3 * n3 + 4 * n4) % 5 == 0:
                        oracle.add((n1, n2, n3, n4))
    assert dio.solve_monomial_system() == oracle


def test_smooth_quadric_case():
    sols = dio.solve_smooth_quadric_case()
    assert sols == {(0, 3), (3, 0), (5, 2), (2, 5)}
    for m, n in sols:
        assert 5 * (m + n) - 2 * m * n == 15
        assert (m * n) % 5 == 0  # divisibility observation


def test_cone_case():
    sols = dio.solve_cone_case()
    assert sols == {(0, 3), (5, 2)}
    for m, n in sols:
        assert m * (m - 2 * n) + 5 * n == 15
        assert (m * (m - 2 * n)) % 5 == 0


def test_cone_case_oracle():
    oracle = {
        (m, n)
        for m in range(6)
        for n in range(11)
        if m * (m - 2 * n) + 5 * n == 15
    }
    assert dio.solve_cone_case() == oracle


def test_intersection_identity():
    assert dio.intersection_identity() == 15
    assert dio.self_intersection_downstairs() == -1
