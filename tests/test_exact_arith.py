"""Field, polynomial and projective-enumeration substrate."""

import importlib
import pkgutil
import re
from fractions import Fraction

import pytest
from hypothesis import example, given, strategies as st

import godeaux_cert
from godeaux_cert import exact_arith, picard_lattice as pl, quintic_family, rr_engine
from godeaux_cert.exact_arith import (
    FieldElement,
    SparsePolynomial,
    _echelon,
    _require_prime,
    integer_determinant,
    is_prime,
    iter_projective_coords,
    primitive_fifth_root,
    projective_count,
    rational_matrix_rank,
)
from godeaux_cert.report import CheckEntry, VerificationReport
from oracles import fraction_elimination, scanned_fifth_root, trial_division_prime

# psi_12, the least strong pseudoprime to the prime bases 2..37, and psi_13,
# the least to 2..41 (Sorenson and Webster, 2017)
PSI_12 = 318665857834031151167461
PSI_13 = 3317044064679887385961981


def test_is_prime_small():
    assert [n for n in range(2, 50) if is_prime(n)] == [
        2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47
    ]


def test_is_prime_matches_trial_division_below_1e5():
    assert [n for n in range(-5, 10**5) if is_prime(n) != trial_division_prime(n)] == []


@pytest.mark.parametrize(
    "n",
    [
        3215031751,  # strong pseudoprime to bases 2, 3, 5 and 7
        3825123056546413051,  # strong pseudoprime to bases 2..23
        PSI_12,  # passes bases 2..37; base 41 catches it
        999999999989**2,
        (2**31 - 1) * (10**12 + 39),
        PSI_13 - 1,  # even, and the largest number still decided
    ],
)
def test_is_prime_rejects_strong_pseudoprimes_and_large_composites(n):
    assert not is_prime(n)


# the largest prime below 10^12, the least above it, and two Mersenne primes
@pytest.mark.parametrize("n", [999999999989, 10**12 + 39, 2**31 - 1, 2**61 - 1])
def test_is_prime_accepts_large_primes(n):
    assert is_prime(n)


@pytest.mark.parametrize("n", [PSI_13, PSI_13 + 2, 10**30])
def test_is_prime_refuses_numbers_from_psi_13_on(n):
    with pytest.raises(ValueError, match="too large"):
        is_prime(n)


@pytest.mark.parametrize("n", [13.0, True, Fraction(13)])
def test_is_prime_refuses_non_ints(n):
    with pytest.raises(TypeError, match="n must be an int"):
        is_prime(n)


def test_a_float_or_bool_modulus_misses_the_cache_entry_of_its_int():
    _require_prime(11)
    for q in (11.0, True):
        with pytest.raises(TypeError, match=re.escape(f"modulus must be an int, got {q!r}")):
            _require_prime(q)
        with pytest.raises(TypeError, match=re.escape(f"modulus must be an int, got {q!r}")):
            FieldElement(1, q)


def test_field_element_is_a_record_with_no_arithmetic():
    """The value is reduced mod the prime and read back as an int; every
    computation with it is done on ints mod q, so the class defines none."""
    a = FieldElement(-4, 11)
    assert a.value == 7 and a.modulus == 11
    assert a != 7 and a == FieldElement(18, 11) != FieldElement(7, 31)
    for name in (
        "_coerce", "__add__", "__radd__", "__mul__", "__rmul__",
        "__pow__", "__bool__", "__eq__", "__hash__", "__repr__",
    ):
        assert name not in FieldElement.__dict__
    with pytest.raises(TypeError):
        a + 1
    with pytest.raises(TypeError):
        a * a


@pytest.mark.parametrize("value", [Fraction(1, 2), 1.5, True])
def test_field_element_refuses_a_non_int_value(value):
    with pytest.raises(TypeError, match=re.escape(f"value must be an int, got {value!r}")):
        FieldElement(value, 11)


# (build one record, its fields as read back, its repr); the field values of
# GroupElement and DivisorClassOrbit agree, and so do those of FieldElement and
# NumericalDivisor, so that each is compared with a record of another class.
RECORDS = {
    "E8Vector": (
        lambda: pl.E8Vector((2, 2, 0, 0, 0, 0, 0, 0)),
        {"c": (2, 2, 0, 0, 0, 0, 0, 0)},
        "E8Vector(c=(2, 2, 0, 0, 0, 0, 0, 0))",
    ),
    "PicardClass": (
        lambda: pl.PicardClass(1, pl.E8_ZERO, 7),
        {"k": 1, "e": pl.E8_ZERO, "t": 2},
        "PicardClass(k=1, e=E8Vector(c=(0, 0, 0, 0, 0, 0, 0, 0)), t=2)",
    ),
    "DivisorClassOrbit": (
        lambda: pl.DivisorClassOrbit((1, 2, 3, 4)),
        {"members": (1, 2, 3, 4)},
        "DivisorClassOrbit(members=(1, 2, 3, 4))",
    ),
    "GroupElement": (
        lambda: quintic_family.GroupElement((6, 7, 8, 9)),
        {"weights": (1, 2, 3, 4)},
        "GroupElement(weights=(1, 2, 3, 4))",
    ),
    "SurfaceInvariants": (
        lambda: rr_engine.SurfaceInvariants(chi=1, K2=1, e=11),
        {"chi": 1, "K2": 1, "e": 11, "q": 0, "pg": 0},
        "SurfaceInvariants(chi=1, K2=1, e=11, q=0, pg=0)",
    ),
    "NumericalDivisor": (
        lambda: rr_engine.NumericalDivisor(1, 11),
        {"self_int": 1, "dot_K": 11},
        "NumericalDivisor(self_int=1, dot_K=11)",
    ),
    "FieldElement": (
        lambda: FieldElement(12, 11),
        {"value": 1, "modulus": 11},
        "FieldElement(value=1, modulus=11)",
    ),
    "CheckEntry": (
        lambda: CheckEntry("x.id", "ref", 1, 2, "derived", "fail"),
        {
            "check_id": "x.id",
            "reference": "ref",
            "expected": 1,
            "actual": 2,
            "provenance": "derived",
            "status": "fail",
        },
        "CheckEntry(check_id='x.id', reference='ref', expected=1, actual=2,"
        " provenance='derived', status='fail')",
    ),
    "VerificationReport": (
        VerificationReport,
        {"entries": [], "metadata": {}},
        "VerificationReport(entries=[], metadata={})",
    ),
}


def test_records_name_every_record_class():
    """RECORDS covers every _Record subclass in the package, so the test below
    runs over all of them, and _Record has no __init__ of its own: each record
    stores its fields in its own constructor, and one without it takes none."""
    for module in pkgutil.iter_modules(godeaux_cert.__path__):
        importlib.import_module(f"godeaux_cert.{module.name}")
    classes = exact_arith._Record.__subclasses__()
    found = {cls.__name__ for cls in classes if cls.__module__.startswith("godeaux_cert.")}
    assert found == set(RECORDS)
    assert "__init__" not in exact_arith._Record.__dict__
    with pytest.raises(TypeError):
        type("Bare", (exact_arith._Record,), {"__slots__": ("x",)})(1)


@pytest.mark.parametrize("name", RECORDS)
def test_records_keep_the_dataclass_behaviour(name, monkeypatch):
    """What callers relied on when these were dataclasses: equality only within
    one class, the hash of the field tuple (the two report records are
    unhashable and take fresh defaults), the repr, frozen fields, and one
    __post_init__ per construction where a class keeps one, as FieldElement
    does for bench/tracer.py to count."""
    make, fields, text = RECORDS[name]
    values = tuple(fields.values())
    cls = type(make())
    hooks = []
    assert hasattr(cls, "__post_init__") == (cls is FieldElement)
    if cls is FieldElement:
        real = cls.__post_init__
        monkeypatch.setattr(cls, "__post_init__", lambda self: hooks.append(real(self)))
    record, again = make(), make()
    assert len(hooks) == (2 if cls is FieldElement else 0)
    assert tuple(getattr(record, field) for field in fields) == values
    assert repr(record) == text
    assert record == again == cls(*values) and record != values
    for other_name, (other_make, other_fields, _) in RECORDS.items():
        if other_name != name and tuple(other_fields.values()) == values:
            assert record != other_make() and other_make() != record
    for field, value in fields.items():
        if isinstance(value, (list, dict)):
            assert getattr(record, field) is not getattr(again, field)
    if cls in (CheckEntry, VerificationReport):
        with pytest.raises(TypeError, match="unhashable"):
            hash(record)
    else:
        assert hash(record) == hash(values)
    for field in fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, 0)
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    assert tuple(getattr(record, field) for field in fields) == values


def test_field_rejects_composite_modulus():
    with pytest.raises(ValueError):
        FieldElement(1, 15)


def test_primitive_fifth_root_known_values():
    assert primitive_fifth_root(11) == FieldElement(3, 11)
    assert primitive_fifth_root(31) == FieldElement(2, 31)


def test_primitive_fifth_root_matches_the_scan():
    for q in range(11, 20_000, 10):
        if trial_division_prime(q):
            assert primitive_fifth_root(q) == FieldElement(scanned_fifth_root(q), q)


def test_primitive_fifth_root_does_not_scan_a_large_field(monkeypatch):
    """At q near 10^12 a scan of g = 2, 3, ... would run for hours; the search
    takes a handful of powers, counted through a module-level pow."""
    calls = []

    def counted(*args):
        calls.append(args)
        if len(calls) > 100:
            raise AssertionError("more than 100 pow calls")
        return pow(*args)

    q = 1_000_000_000_061
    monkeypatch.setattr(exact_arith, "pow", counted, raising=False)
    root = primitive_fifth_root(q)
    monkeypatch.undo()
    assert root.modulus == q and root.value != 1 and pow(root.value, 5, q) == 1


def test_primitive_fifth_root_has_order_five():
    for q in (11, 31, 41, 61, 71, 101):
        g = primitive_fifth_root(q)
        assert g.modulus == q
        assert pow(g.value, 5, q) == 1
        assert g.value != 1


def test_primitive_fifth_root_rejects_bad_residue():
    with pytest.raises(ValueError):
        primitive_fifth_root(7)


def test_sparse_polynomial_drops_zero_terms():
    p = SparsePolynomial({(1, 0): 0, (0, 1): 2}, 2)
    assert p.terms == {(0, 1): 2}


@pytest.mark.parametrize(
    "terms, num_vars, message",
    [
        ({}, 0, "at least one variable"),
        ({(1, 0, 0): 1}, 2, "wrong arity"),
        ({(1, -1): 1}, 2, "negative exponent"),
    ],
)
def test_sparse_polynomial_refuses_bad_shapes(terms, num_vars, message):
    with pytest.raises(ValueError, match=message):
        SparsePolynomial(terms, num_vars)


def test_eval_over_field():
    """Evaluated at int points and reduced mod q, as the reference scans read
    it: 2^5 + 3^5 = 275 = 25 * 11, so (2 : 3) lies on x^5 + y^5 over F_11."""
    q = 11
    p = SparsePolynomial({(5, 0): 1, (0, 5): 1}, 2)
    assert p.eval((2, 3)) == 275 and p.eval((2, 3)) % q == 0
    assert p.eval((3, 4)) == 1267 and p.eval((3, 4)) % q == 2
    assert p.eval((Fraction(1, 2), 1)) == Fraction(33, 32)
    assert SparsePolynomial({(1, 0): 0}, 2).eval((2, 3)) == 0
    with pytest.raises(ValueError, match="point arity 3 != 2"):
        p.eval((2,) * 3)


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
    assert rational_matrix_rank(m) == fraction_elimination(m)[0]


@given(
    st.lists(
        st.lists(st.integers(-4, 4), min_size=4, max_size=4),
        min_size=4,
        max_size=4,
    )
)
def test_integer_determinant_matches_fraction_elimination(m):
    assert integer_determinant(m) == fraction_elimination(m)[1]


def test_integer_determinant_needs_square():
    with pytest.raises(ValueError):
        integer_determinant([[1, 2, 3], [4, 5, 6]])


@pytest.mark.parametrize(
    "route, matrix",
    [
        # floor division by the previous pivot is exact only on ints: each was read
        # as rank 1 or as the Fraction itself
        (
            rational_matrix_rank,
            [[Fraction(1, 2), Fraction(1, 3)], [Fraction(1, 5), Fraction(1, 7)]],
        ),
        (rational_matrix_rank, [[0.5, 0.3], [0.2, 0.7]]),
        (integer_determinant, [[Fraction(1, 2)]]),
        (_echelon, [[Fraction(1, 2), 0], [0, 1]]),
        (rational_matrix_rank, [[True, 0], [0, 1]]),
    ],
)
def test_bareiss_routes_refuse_a_non_int_entry(route, matrix):
    with pytest.raises(TypeError, match="matrix entry must be an int"):
        route(matrix)


# the first was read as rank 1, ignoring the 4; the second raised a bare IndexError
@pytest.mark.parametrize("matrix", [[[1], [3, 4]], [[1, 2], [3]]])
def test_rational_matrix_rank_refuses_a_ragged_matrix(matrix):
    with pytest.raises(ValueError, match="ragged matrix"):
        rational_matrix_rank(matrix)


def test_integer_determinant_of_the_empty_matrix_is_one():
    assert integer_determinant([]) == 1 == fraction_elimination([])[1]


@st.composite
def _square_matrices(draw):
    """n x n integer matrices, n = 1..6, of three kinds: random ones; ones
    with a zero leading minor, at a drawn k, made by setting row k's leading
    k entries to a combination of the rows above (all zero for k = 1); and
    L U, with L unit lower and U upper triangular with a positive diagonal,
    whose leading minors are all positive."""
    n = draw(st.integers(1, 6))
    rows = st.lists(st.integers(-3, 3), min_size=n, max_size=n)
    m = draw(st.lists(rows, min_size=n, max_size=n))
    kind = draw(st.sampled_from(("random", "zero minor", "positive minors")))
    if kind == "zero minor":
        k = draw(st.integers(1, n))
        coeffs = draw(st.lists(st.integers(-2, 2), min_size=k - 1, max_size=k - 1))
        m[k - 1][:k] = [sum(c * m[i][j] for i, c in enumerate(coeffs)) for j in range(k)]
    elif kind == "positive minors":
        diag = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        lower = [[1 if i == j else m[i][j] * (j < i) for j in range(n)] for i in range(n)]
        upper = [[diag[i] if i == j else m[i][j] * (j > i) for j in range(n)] for i in range(n)]
        m = [[sum(lower[i][l] * upper[l][j] for l in range(n)) for j in range(n)] for i in range(n)]
    return m


@given(_square_matrices())
# the 1 x 1 minor is 0, and after a row exchange every pivot is 1
@example([[0, 1], [1, 0]])
# both leading minors are 1, but the larger first-column entry is the second
@example([[1, 0], [2, 1]])
def test_leading_minors_match_determinants_up_to_the_first_zero(m):
    """lattice_checks reads the rank and the definiteness off one elimination
    of -Gram.  With m as -Gram, negative_definite agrees with the determinant
    of every leading block of m, taken separately, and rank and picard_rank
    with the rank of m by elimination over Q."""
    blocks = ([row[:k] for row in m[:k]] for k in range(1, len(m) + 1))
    want = all(fraction_elimination(block)[1] > 0 for block in blocks)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(pl, "gram_matrix", lambda basis: [[-x for x in row] for row in m])
        actual = {e.check_id: e.actual for e in pl.lattice_checks()}
    rank = fraction_elimination(m)[0]
    assert actual["lattice.negative_definite"] is want
    assert (actual["lattice.rank"], actual["lattice.picard_rank"]) == (rank, 1 + rank)
