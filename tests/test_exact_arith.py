"""Field, polynomial and projective-enumeration substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from godeaux_cert.exact_arith import (
    FieldElement,
    SparsePolynomial,
    integer_determinant,
    is_prime,
    iter_projective_coords,
    primitive_fifth_root,
    projective_count,
    rational_matrix_rank,
)
from oracles import fraction_det


def test_is_prime_small():
    assert [n for n in range(2, 50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]


def test_field_arithmetic_basics():
    a = FieldElement(7, 11)
    b = FieldElement(8, 11)
    assert a + b == 4
    assert a * b == 1
    assert a + b * -1 == 10
    assert a ** 5 == pow(7, 5, 11)
    assert a * -1 == 4
    assert 3 + a == a + 3 == 10 and 2 * a == 3
    assert a.value == 7 and FieldElement(-4, 11).value == 7


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldElement(1, 15)


def test_primitive_fifth_root_known_values():
    assert primitive_fifth_root(11) == 3
    assert primitive_fifth_root(31) == 2


def test_primitive_fifth_root_has_order_five():
    for q in (11, 31, 41, 61, 71, 101):
        g = primitive_fifth_root(q)
        assert g ** 5 == 1
        assert g != 1


def test_primitive_fifth_root_rejects_bad_residue():
    with pytest.raises(ValueError):
        primitive_fifth_root(7)


def test_sparse_polynomial_drops_zero_terms():
    p = SparsePolynomial({(1, 0): 0, (0, 1): 2}, 2)
    assert p.terms == {(0, 1): 2}


def test_eval_over_field():
    q = 11
    p = SparsePolynomial({(5, 0): FieldElement(1, q), (0, 5): FieldElement(1, q)}, 2)
    assert p.eval((FieldElement(2, q), FieldElement(3, q))) == (2 ** 5 + 3 ** 5) % q


def test_projective_enumeration_counts():
    assert sum(1 for _ in iter_projective_coords(11, 3)) == projective_count(11, 3) == 1464
    assert sum(1 for _ in iter_projective_coords(11, 2)) == projective_count(11, 2) == 133


def test_projective_enumeration_no_duplicates():
    # every tuple leads with a 1, so distinct tuples are distinct points
    pts = list(iter_projective_coords(11, 2))
    assert len(set(pts)) == len(pts)
    assert all(next(x for x in p if x) == 1 for p in pts)


def test_rational_matrix_rank():
    assert rational_matrix_rank([[1, 2], [2, 4]]) == 1
    assert rational_matrix_rank([[1, 0], [0, 1]]) == 2
    assert rational_matrix_rank([[0, 0], [0, 0]]) == 0


def _fraction_rank(m):
    """Gauss-Jordan rank over Q with Fraction entries: the oracle for the echelon route."""
    a = [[Fraction(x) for x in row] for row in m]
    rank = 0
    for col in range(len(a[0]) if a else 0):
        piv = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if piv is None:
            continue
        a[rank], a[piv] = a[piv], a[rank]
        a[rank] = [x / a[rank][col] for x in a[rank]]
        for r in range(len(a)):
            f = a[r][col]
            if r != rank and f:
                a[r] = [x - f * y for x, y in zip(a[r], a[rank])]
        rank += 1
    return rank


@st.composite
def _low_rank_matrices(draw):
    """m x n integer matrices, often rank-deficient: a product (m x k)(k x n)."""
    m, n, k = draw(st.integers(1, 6)), draw(st.integers(1, 6)), draw(st.integers(1, 4))
    entries = st.integers(-3, 3)
    A = draw(st.lists(st.lists(entries, min_size=k, max_size=k), min_size=m, max_size=m))
    B = draw(st.lists(st.lists(entries, min_size=n, max_size=n), min_size=k, max_size=k))
    return [[sum(A[i][l] * B[l][j] for l in range(k)) for j in range(n)] for i in range(m)]


@given(
    st.one_of(
        _low_rank_matrices(),
        st.integers(1, 6).flatmap(
            lambda n: st.lists(
                st.lists(st.integers(-4, 4), min_size=n, max_size=n), min_size=1, max_size=6
            )
        ),
    )
)
def test_rational_matrix_rank_matches_fraction_elimination(m):
    assert rational_matrix_rank(m) == _fraction_rank(m)


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_integer_determinant_matches_fraction_elimination(m):
    assert integer_determinant(m) == fraction_det(m)


def test_integer_determinant_needs_square():
    with pytest.raises(ValueError):
        integer_determinant([[1, 2, 3], [4, 5, 6]])
