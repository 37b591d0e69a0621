"""Exact field values over the rationals or a prime field, plus row-echelon
linear algebra (spans, membership, rank).

No floating point anywhere, and no wrapper objects: a value of Q is a
plain ``Fraction``, a value of GF(p) is a plain ``int`` residue 0..p-1.
``FieldSpec`` owns the canonical form and the arithmetic on these values.
A subspace is stored only as its reduced echelon rows in sparse
``{column: value}`` form, so membership tests and closures cost the
number of nonzero entries they touch rather than the ambient dimension.
Dense coordinate tuples exist only at the API boundary: the vectors a
caller hands in and the ``rows`` view a caller reads out.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Iterable, Sequence

from .errors import DimensionMismatchError, FieldMismatchError

__all__ = [
    "FieldSpec",
    "Subspace",
    "rref",
    "unit_vector",
]


def _is_prime(n: int) -> bool:
    # Deterministic Miller-Rabin; this witness set is exact below 3.3e24.
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldSpec:
    """The base field: the rationals when p is None, else GF(p).

    Values are canonical raw Python numbers: ``Fraction`` over Q, ``int``
    in 0..p-1 over GF(p).  Sums and products of canonical values become
    canonical again through ``normalise``; the other methods return
    canonical values directly.
    """

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if type(self.p) is not int:  # rejects bool and 5.0 as well
            raise ValueError(
                f"field modulus must be an integer, got {self.p!r}")
        if not _is_prime(self.p):
            raise ValueError(f"field modulus must be prime, got {self.p}")

    @staticmethod
    def rationals() -> "FieldSpec":
        return FieldSpec(None)

    @staticmethod
    def prime(p: int) -> "FieldSpec":
        return FieldSpec(p)

    @property
    def is_rationals(self) -> bool:
        return self.p is None

    def scalar(self, value):
        """Coerce an int or Fraction into this field's canonical value.

        Over GF(p) a Fraction must be an integer; anything else raises
        ValueError."""
        if self.p is None:
            return Fraction(value)
        if isinstance(value, Fraction):
            if value.denominator != 1:
                raise ValueError(f"non-integer value {value} in {self}")
            value = value.numerator
        return int(value) % self.p

    def is_element(self, value) -> bool:
        """True iff value is already a canonical value of this field."""
        if self.p is None:
            return type(value) is Fraction
        return type(value) is int and 0 <= value < self.p

    def normalise(self, value):
        """Canonical form of an exact sum or product of canonical values."""
        return value if self.p is None else value % self.p

    def add(self, a, b):
        return self.normalise(a + b)

    def mul(self, a, b):
        return self.normalise(a * b)

    def inv(self, a):
        if not a:
            raise ZeroDivisionError(f"inverse of zero in {self}")
        if self.p is None:
            return 1 / a
        return pow(a, -1, self.p)

    @property
    def zero(self):
        return Fraction(0) if self.p is None else 0

    @property
    def one(self):
        return Fraction(1) if self.p is None else 1

    def __str__(self) -> str:
        return "Q" if self.p is None else f"GF({self.p})"


Vector = tuple  # tuple of canonical field values; kept loose


def _unit_row(field: FieldSpec, n: int, i: int) -> dict:
    if not 0 <= i < n:
        raise DimensionMismatchError(f"unit index {i} out of range for dim {n}")
    return {i: field.one}


def unit_vector(field: FieldSpec, n: int, i: int) -> Vector:
    return to_dense(field, n, _unit_row(field, n, i))


def to_sparse(v: Sequence) -> dict:
    """The nonzero coordinates of a dense vector, as {index: value}."""
    return {k: x for k, x in enumerate(v) if x}


def to_dense(field: FieldSpec, n: int, v: dict) -> Vector:
    """The dense coordinate tuple of a sparse vector."""
    zero = field.zero
    return tuple(v.get(k, zero) for k in range(n))


def add_scaled(acc: dict, coeff, v: dict) -> None:
    """acc += coeff * v on sparse vectors, leaving values unnormalised."""
    for k, x in v.items():
        acc[k] = acc.get(k, 0) + coeff * x


def as_pairs(v: dict) -> dict:
    """A sparse vector of canonical values as {index: (numerator,
    denominator)}; a residue of GF(p) reads as (value, 1)."""
    return {k: (x.numerator, x.denominator) for k, x in v.items()}


def add_scaled_pairs(acc: dict, coeff: tuple, v: dict) -> None:
    """acc += coeff * v on sparse vectors of integer pairs (n, d) that
    stand for n / d with d > 0.

    A term multiplies the pairs componentwise.  A sum adds numerators
    when the denominators agree and otherwise brings both values to the
    lcm of the denominators, so a coordinate's denominator stays a
    divisor of the lcm of its terms' denominators however many terms
    it sums.  Values are not reduced and no Fraction is built; a value
    is zero iff its numerator is."""
    cn, cd = coeff
    for k, (xn, xd) in v.items():
        num, den = cn * xn, cd * xd
        old = acc.get(k)
        if old is not None:
            an, ad = old
            if ad == den:
                num += an
            else:
                g = gcd(ad, den)
                num = an * (den // g) + num * (ad // g)
                den = ad // g * den
        acc[k] = (num, den)


def prune(field: FieldSpec, v: dict) -> dict:
    """A sparse vector with every value normalised and the zeros dropped."""
    norm = field.normalise
    out = {}
    for k, x in v.items():
        x = norm(x)
        if x:
            out[k] = x
    return out


def _eliminate(field: FieldSpec, v: dict, basis: dict) -> dict:
    """The sparse vector v reduced against fully reduced rows.

    ``basis`` maps each pivot column to its row as a sparse dict with
    pivot entry one and no entry at any other pivot column, so clearing
    one pivot never disturbs another and v's pivots can be listed before
    the elimination starts.  v is consumed."""
    for c in [c for c in v if c in basis]:
        add_scaled(v, -v[c], basis[c])
    return prune(field, v)


def echelon(field: FieldSpec, vectors: Iterable[dict], basis=None) -> dict:
    """Fully reduced row echelon form of sparse vectors, as {pivot: row}.

    With ``basis`` given, the vectors are reduced into it (in place).
    Each new row has its leading entry scaled to one and its pivot
    column cleared from the other rows, so all rows stay fully reduced.
    """
    basis = {} if basis is None else basis
    for v in vectors:
        v = _eliminate(field, dict(v), basis)
        if not v:
            continue
        c = min(v)
        inv = field.inv(v[c])
        row = prune(field, {k: x * inv for k, x in v.items()})
        for pivot, other in basis.items():
            if c in other:
                add_scaled(other, -other[c], row)
                basis[pivot] = prune(field, other)
        basis[c] = row
    return basis


def _check_rows(field: FieldSpec, rows, ambient_dim: int) -> list:
    out = []
    for row in rows:
        if len(row) != ambient_dim:
            raise DimensionMismatchError(
                f"row length {len(row)} != ambient dimension {ambient_dim}"
            )
        for entry in row:
            if not field.is_element(entry):
                raise FieldMismatchError("row entry not a value of the field")
        out.append(to_sparse(row))
    return out


def rref(field: FieldSpec, rows: Iterable[Sequence], ambient_dim: int):
    """Reduced row echelon form over an exact field.

    Returns (rows, pivots): zero rows dropped, each pivot normalized to 1,
    pivot columns strictly increasing, and each pivot the only nonzero
    entry in its column.  The output is a canonical form of the row span.
    """
    span = Subspace.from_vectors(field, ambient_dim, rows)
    return span.rows, span.pivots


class Subspace:
    """A subspace of field^ambient_dim in canonical reduced echelon form.

    The only stored form is ``{pivot column: sparse row}`` in pivot
    order, each row a ``{column: value}`` dict with pivot entry one and
    no entry at any other pivot column.  Dense ``rows`` and ``pivots``
    are derived on access.  Equal spans compare and hash equal however
    they were built.  The constructor takes an ``echelon`` result and
    keeps its row dicts, not copies.
    """

    __slots__ = ("field", "ambient_dim", "_basis")

    def __init__(self, field: FieldSpec, ambient_dim: int, basis: dict):
        self.field = field
        self.ambient_dim = ambient_dim
        self._basis = dict(sorted(basis.items()))

    @classmethod
    def from_vectors(cls, field: FieldSpec, ambient_dim: int,
                     vectors: Iterable[Vector]) -> "Subspace":
        return cls(field, ambient_dim,
                   echelon(field, _check_rows(field, vectors, ambient_dim)))

    @classmethod
    def from_basis_indices(cls, field: FieldSpec, ambient_dim: int,
                           indices: Iterable[int]) -> "Subspace":
        # Unit vectors at distinct indices are already fully reduced.
        return cls(field, ambient_dim, {
            i: _unit_row(field, ambient_dim, i) for i in set(indices)})

    @property
    def pivots(self) -> tuple:
        return tuple(self._basis)

    @property
    def rows(self) -> tuple:
        """The rows as dense tuples, in pivot order."""
        return tuple(to_dense(self.field, self.ambient_dim, row)
                     for row in self._basis.values())

    @property
    def rank(self) -> int:
        return len(self._basis)

    def __eq__(self, other):
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.field == other.field
                and self.ambient_dim == other.ambient_dim
                and self._basis == other._basis)

    def __hash__(self):
        return hash((self.field, self.ambient_dim, self.pivots))

    def __repr__(self):
        return (f"Subspace({self.field}, ambient_dim={self.ambient_dim}, "
                f"pivots={self.pivots})")

    def sparse_rows(self):
        """The rows as sparse {column: value} dicts, in pivot order."""
        return self._basis.values()

    def contains(self, v: Vector) -> bool:
        """Membership of a dense coordinate vector."""
        if len(v) != self.ambient_dim:
            raise DimensionMismatchError(
                f"vector length {len(v)} != ambient {self.ambient_dim}"
            )
        return self.contains_sparse(to_sparse(v))

    def contains_sparse(self, v: dict) -> bool:
        """Membership of a sparse vector {index: nonzero value}.

        A vector of the span is the sum of its pivot entries times their
        rows, so a multiple of one unit vector v_w lies in it iff w is a
        pivot whose row has no other entry.  That case costs one lookup
        and no field arithmetic; any other vector is reduced against the
        rows."""
        if len(v) == 1:
            (w,) = v
            row = self._basis.get(w)
            return row is not None and len(row) == 1
        return not _eliminate(self.field, dict(v), self._basis)

    def basis_members(self) -> tuple:
        """Indices i whose unit vector lies in the subspace, ascending:
        the pivots whose rows have no other entry (see contains_sparse)."""
        return tuple(i for i, row in self._basis.items() if len(row) == 1)
