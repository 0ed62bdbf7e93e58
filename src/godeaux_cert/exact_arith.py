"""Exact arithmetic substrate.

Primality, fifth roots of unity, projective-space enumeration over a prime
field, and exact integer and rational linear algebra, all read off one
fraction-free elimination.  A modulus, a number tested for primality or a
matrix entry that is not an int is refused with TypeError.  Prime-field
work has one representation, plain ints mod q: the checks and the tests'
reference scans compute on them alike.  FieldElement is a plain record of
a value and its prime modulus, which primitive_fifth_root returns; the
invariance check calls primitive_fifth_root only to refuse a q with no
order-5 symmetry, and decides on weights mod 5.  SparsePolynomial, which
only evaluates, serves the tests' reference scans.  All values are
immutable and all operations are pure functions.  _Record, the slotted base
of the package's frozen value classes, stands in for dataclasses, which
would import inspect at start-up: each record's __init__ checks its
arguments and stores each field through its own slot setter.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from functools import lru_cache
from typing import Iterator, List, Mapping, Optional, Sequence, Tuple


# Miller-Rabin with the 13 prime bases 2..41 is exact below psi_13
# (Sorenson and Webster, Math. Comp. 86 (2017)); psi_12 passes bases 2..37.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_LIMIT = 3_317_044_064_679_887_385_961_981  # psi_13


def _require_int(name: str, value, least: Optional[int] = None) -> None:
    """TypeError unless value is an int (a bool or a float is not); ValueError below least."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {value!r}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


def _require_rational(name: str, value) -> None:
    """TypeError unless value is an int or a Fraction (a bool, float, str or Decimal is not)."""
    if type(value) is not int and type(value) is not Fraction:
        raise TypeError(f"{name} must be an int or Fraction, got {type(value).__name__} {value!r}")


class _Record:
    """Slotted base of the frozen value classes, with what @dataclass(frozen=True) gave.

    A subclass lists its fields in __slots__ ("__dict__" last if it keeps a
    cached_property); its __init__ checks its arguments, then stores each
    field through its own slot setter, unpacked from _setters, in slot order.
    Only FieldElement's then calls a __post_init__ hook, through which
    bench/tracer.py counts constructions.
    A record equals only a record of its own class with equal fields, hashes
    as the tuple of its fields, reprs as Name(field=value, ...) and refuses
    assignment and deletion.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        cls._fields = tuple(name for name in cls.__slots__ if name != "__dict__")
        # one C-level getter of every field, which __eq__ and _values share
        cls._key = operator.attrgetter(*cls._fields)
        # each slot's own setter, which the __setattr__ below does not reach
        cls._setters = tuple(getattr(cls, name).__set__ for name in cls._fields)

    def _values(self) -> tuple:
        """The fields as a tuple; attrgetter of one name returns the bare value."""
        key = self._key(self)
        return key if len(self._fields) > 1 else (key,)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        body = ", ".join(f"{name}={value!r}" for name, value in zip(self._fields, self._values()))
        return f"{type(self).__qualname__}({body})"

    def __setattr__(self, name, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


def is_prime(n: int) -> bool:
    """Whether n is prime; n at or above psi_13 is refused with ValueError."""
    _require_int("n", n)
    if n >= _MR_LIMIT:
        raise ValueError(f"{n} is too large: primality is decided only below {_MR_LIMIT}")
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=None, typed=True)  # typed: 11.0 must not hit the entry for 11
def _require_prime(q: int) -> None:
    _require_int("modulus", q)
    if not is_prime(q):
        raise ValueError(f"modulus {q} is not prime")


class FieldElement(_Record):
    """An element of the prime field F_modulus, as its value reduced to [0, modulus).

    A plain record with no arithmetic: whoever computes with the element
    reads value and works on ints mod modulus.  A value that is not an int
    is refused with TypeError, a modulus that is not a prime with TypeError
    or ValueError.
    """

    __slots__ = ("value", "modulus")

    def __init__(self, value: int, modulus: int) -> None:
        _require_int("value", value)
        set_value, set_modulus = self._setters
        set_value(self, value)
        set_modulus(self, modulus)
        self.__post_init__()

    def __post_init__(self) -> None:
        _require_prime(self.modulus)
        self._setters[0](self, self.value % self.modulus)  # the reduced value


def primitive_fifth_root(q: int) -> FieldElement:
    """Smallest g in F_q* with g^5 = 1 and g != 1.

    Requires q = 1 (mod 5); otherwise no such element exists.
    """
    _require_prime(q)
    if q % 5 != 1:
        raise ValueError(f"q = {q} has q mod 5 = {q % 5}; need q = 1 (mod 5)")
    # the first h^((q-1)/5) != 1 has order 5: its powers 1..4 are the roots
    for h in range(2, q):
        zeta = pow(h, (q - 1) // 5, q)
        if zeta != 1:
            return FieldElement(min(pow(zeta, k, q) for k in range(1, 5)), q)
    raise AssertionError("unreachable: a fifth root exists when q = 1 (mod 5)")


class SparsePolynomial:
    """Map from exponent tuples to nonzero int or Fraction coefficients, evaluated at a point.

    Terms are kept with no zero coefficients.  No check path builds one:
    the tests evaluate a member and its partials at int points, reducing
    mod q, as an independent oracle for the mod-q scans, and evaluation is
    all this class offers.
    """

    __slots__ = ("terms", "num_vars")

    def __init__(self, terms: Mapping[Tuple[int, ...], object], num_vars: int):
        if num_vars < 1:
            raise ValueError("need at least one variable")
        clean = {}
        for exps, coeff in terms.items():
            exps = tuple(exps)
            if len(exps) != num_vars:
                raise ValueError(f"exponent tuple {exps} has wrong arity")
            if any(e < 0 for e in exps):
                raise ValueError(f"negative exponent in {exps}")
            if coeff:
                clean[exps] = coeff
        self.terms = clean
        self.num_vars = num_vars

    def eval(self, point: Sequence) -> object:
        if len(point) != self.num_vars:
            raise ValueError(f"point arity {len(point)} != {self.num_vars}")
        return sum(c * math.prod(map(pow, point, exps)) for exps, c in self.terms.items())


def iter_projective_coords(q: int, dim: int) -> Iterator[Tuple[int, ...]]:
    """Normalized coordinate tuples of P^dim(F_q) as plain ints.

    Exactly (q^(dim+1) - 1)/(q - 1) tuples, one per equivalence class:
    leading zeros, then a 1, then a free tail.
    """
    for lead in range(dim + 1):
        head = (0,) * lead + (1,)
        for tail in itertools.product(range(q), repeat=dim - lead):
            yield head + tail


def projective_count(q: int, dim: int) -> int:
    return (q ** (dim + 1) - 1) // (q - 1)


def _echelon(rows: Sequence[Sequence[int]]) -> Tuple[int, int, List[List[int]]]:
    """Fraction-free (Bareiss) row echelon form of an integer matrix.

    Returns (rank, row exchanges, echelon rows).  An entry that is not an
    int is refused with TypeError, since the floor division below is exact
    only on ints, and a ragged row with ValueError.  Columns without a pivot
    are skipped; every division is exact because each stored entry is a
    minor of the pivot columns.  A row is exchanged in only for a zero
    diagonal entry, so an n x n matrix is reduced to rank n with no exchange
    exactly when its leading minors are all nonzero, and then the k-th pivot
    is the k-th leading minor: all are positive exactly when the rank is n,
    no row was exchanged and every pivot is positive.
    """
    a = [list(row) for row in rows]
    ncols = len(a[0]) if a else 0
    if any(len(row) != ncols for row in a):
        raise ValueError(f"ragged matrix: row lengths {[len(row) for row in a]}")
    for entry in itertools.chain.from_iterable(a):
        _require_int("matrix entry", entry)
    rank, exchanges, prev = 0, 0, 1
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(a)) if a[r][col] != 0), None)
        if pivot is None:
            continue
        if pivot != rank:
            a[rank], a[pivot] = a[pivot], a[rank]
            exchanges += 1
        top = a[rank]
        for row in a[rank + 1 :]:
            for j in range(col + 1, ncols):
                row[j] = (row[j] * top[col] - row[col] * top[j]) // prev
            row[col] = 0
        prev = top[col]
        rank += 1
    return rank, exchanges, a


def rational_matrix_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of an integer matrix, by fraction-free elimination."""
    return _echelon(rows)[0]


def integer_determinant(matrix: Sequence[Sequence[int]]) -> int:
    """Exact determinant of an integer matrix (Bareiss elimination); 1 for 0 x 0."""
    n = len(matrix)
    if any(len(row) != n for row in matrix):
        raise ValueError("matrix must be square")
    if n == 0:
        return 1  # the empty product
    rank, exchanges, a = _echelon(matrix)
    return (-1) ** exchanges * a[n - 1][n - 1] if rank == n else 0
