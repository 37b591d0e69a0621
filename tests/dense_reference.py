"""Dense reference arithmetic, independent of the package's sparse core.

Every value here is a ``Scalar`` object that carries its field and checks
it on every operation, structure constants are a full n x n x n tensor,
and the identity check, the bracket, ideal closure and the ideal test
loop over every coordinate.  This is the arithmetic the package used
before it switched to sparse products and raw field values; the tests
keep it as the second route that the fast one must agree with.  It
reads only ``algebra.field.p``, ``algebra.labels`` and
``algebra.products`` from the package.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from typing import Iterable, Sequence

from leibniz_graphs.errors import DimensionMismatchError, FieldMismatchError


class Scalar:
    """An exact element of a FieldSpec, kept in canonical form."""

    __slots__ = ("field", "value")

    def __init__(self, field, value):
        if field.p is None:
            value = Fraction(value)
        else:
            if isinstance(value, Fraction):
                if value.denominator != 1:
                    raise ValueError(
                        f"non-integer value {value} in {field}"
                    )
                value = value.numerator
            value = int(value) % field.p
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "value", value)

    def __setattr__(self, name, val):
        raise AttributeError("Scalar is immutable")

    def _coerce(self, other) -> "Scalar":
        if not isinstance(other, Scalar):
            raise TypeError(f"expected Scalar, got {type(other).__name__}")
        if other.field != self.field:
            raise FieldMismatchError(
                f"cannot combine {self.field} and {other.field} scalars"
            )
        return other

    def __add__(self, other):
        other = self._coerce(other)
        return Scalar(self.field, self.value + other.value)

    def __sub__(self, other):
        other = self._coerce(other)
        return Scalar(self.field, self.value - other.value)

    def __mul__(self, other):
        other = self._coerce(other)
        return Scalar(self.field, self.value * other.value)

    def __truediv__(self, other):
        other = self._coerce(other)
        return self * other.inverse()

    def __neg__(self):
        return Scalar(self.field, -self.value)

    def inverse(self) -> "Scalar":
        if not self.value:
            raise ZeroDivisionError(f"inverse of zero in {self.field}")
        if self.field.p is None:
            return Scalar(self.field, 1 / Fraction(self.value))
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __bool__(self) -> bool:
        return bool(self.value)

    def __eq__(self, other):
        if not isinstance(other, Scalar):
            return NotImplemented
        return self.field == other.field and self.value == other.value

    def __hash__(self):
        return hash((self.field, self.value))

    def __str__(self) -> str:
        return str(self.value)

    def __repr__(self) -> str:
        return f"Scalar({self.field}, {self.value})"


def scalar_arith(a: Scalar, b: Scalar, op: str) -> Scalar:
    """Apply one of 'add', 'sub', 'mul', 'div' to two same-field scalars."""
    if op == "add":
        return a + b
    if op == "sub":
        return a - b
    if op == "mul":
        return a * b
    if op == "div":
        return a / b
    raise ValueError(f"unknown scalar operation {op!r}")


def zero(field) -> Scalar:
    return Scalar(field, 0)


def one(field) -> Scalar:
    return Scalar(field, 1)


@lru_cache(maxsize=None)
def zero_vector(field, n: int) -> tuple:
    return (zero(field),) * n


@lru_cache(maxsize=None)
def unit_vector(field, n: int, i: int) -> tuple:
    if not 0 <= i < n:
        raise DimensionMismatchError(f"unit index {i} out of range for dim {n}")
    return tuple(one(field) if k == i else zero(field) for k in range(n))


def scalars(field, values: Iterable) -> tuple:
    """Raw values (or anything Scalar accepts) as a tuple of Scalars."""
    return tuple(Scalar(field, v) for v in values)


def values(vector: Iterable[Scalar]) -> tuple:
    """The raw values of a tuple of Scalars, for comparing with the
    package's plain Fraction/int vectors."""
    return tuple(s.value for s in vector)


def rref(field, rows: Iterable[Sequence[Scalar]], ambient_dim: int):
    """Dense Gauss-Jordan elimination; returns (rows, pivots)."""
    work = []
    for row in rows:
        if len(row) != ambient_dim:
            raise DimensionMismatchError(
                f"row length {len(row)} != ambient dimension {ambient_dim}"
            )
        for entry in row:
            if not isinstance(entry, Scalar) or entry.field != field:
                raise FieldMismatchError("row entry not a scalar of the field")
        work.append(list(row))
    pivots = []
    r = 0
    for c in range(ambient_dim):
        pivot_row = next((i for i in range(r, len(work)) if work[i][c]), None)
        if pivot_row is None:
            continue
        work[r], work[pivot_row] = work[pivot_row], work[r]
        inv = work[r][c].inverse()
        work[r] = [x * inv for x in work[r]]
        for i in range(len(work)):
            if i != r and work[i][c]:
                f = work[i][c]
                work[i] = [a - f * b for a, b in zip(work[i], work[r])]
        pivots.append(c)
        r += 1
        if r == len(work):
            break
    return tuple(tuple(row) for row in work[:r]), tuple(pivots)


class Subspace:
    """A span held as dense RREF rows of Scalars."""

    def __init__(self, field, ambient_dim: int, vectors=()):
        self.field = field
        self.ambient_dim = ambient_dim
        self.rows, self.pivots = rref(field, vectors, ambient_dim)

    @classmethod
    def from_basis_indices(cls, field, ambient_dim: int, indices):
        return cls(field, ambient_dim,
                   [unit_vector(field, ambient_dim, i)
                    for i in sorted(set(indices))])

    @property
    def rank(self) -> int:
        return len(self.rows)

    def contains(self, v) -> bool:
        out = list(v)
        for row, c in zip(self.rows, self.pivots):
            f = out[c]
            if f:
                out = [a - f * b for a, b in zip(out, row)]
        return not any(out)

    def with_vectors(self, vectors) -> "Subspace":
        return Subspace(self.field, self.ambient_dim,
                        list(self.rows) + list(vectors))

    def value_rows(self) -> tuple:
        return tuple(values(row) for row in self.rows)


def dense_tensor(algebra) -> tuple:
    """The full structure tensor of an algebra, as Scalars."""
    field, n = algebra.field, algebra.dim
    tensor = [[list(zero_vector(field, n)) for _ in range(n)]
              for _ in range(n)]
    for (i, j), coords in algebra.products.items():
        for k, c in coords.items():
            tensor[i][j][k] = Scalar(field, c)
    return tuple(tuple(tuple(v) for v in row) for row in tensor)


def product(field, tensor, x, y) -> tuple:
    """The bracket [x, y], looping over every coordinate."""
    n = len(tensor)
    acc = list(zero_vector(field, n))
    for i, xi in enumerate(x):
        if not xi:
            continue
        for j, yj in enumerate(y):
            if not yj:
                continue
            coeff = xi * yj
            for k, c in enumerate(tensor[i][j]):
                if c:
                    acc[k] = acc[k] + coeff * c
    return tuple(acc)


def _vec_bracket_basis(field, tensor, w, i):
    n = len(tensor)
    acc = list(zero_vector(field, n))
    for m, wm in enumerate(w):
        if wm:
            for k, c in enumerate(tensor[m][i]):
                if c:
                    acc[k] = acc[k] + wm * c
    return tuple(acc)


def _basis_bracket_vec(field, tensor, i, w):
    n = len(tensor)
    acc = list(zero_vector(field, n))
    for m, wm in enumerate(w):
        if wm:
            for k, c in enumerate(tensor[i][m]):
                if c:
                    acc[k] = acc[k] + wm * c
    return tuple(acc)


def residual(field, tensor, i: int, j: int, k: int) -> tuple:
    """[[v_j, v_k], v_i] - [[v_j, v_i], v_k] - [v_j, [v_k, v_i]]."""
    lhs = _vec_bracket_basis(field, tensor, tensor[j][k], i)
    t1 = _vec_bracket_basis(field, tensor, tensor[j][i], k)
    t2 = _basis_bracket_vec(field, tensor, j, tensor[k][i])
    return tuple(a - b - c for a, b, c in zip(lhs, t1, t2))


def check_leibniz(field, tensor) -> list:
    """Every basis triple (i, j, k, residual) violating the identity, in
    (j, k, i) order, over all n^3 triples."""
    n = len(tensor)
    violations = []
    for j in range(n):
        for k in range(n):
            for i in range(n):
                r = residual(field, tensor, i, j, k)
                if any(r):
                    violations.append((i, j, k, r))
    return violations


def ideal_closure(field, tensor, seeds) -> Subspace:
    """Round-based closure under bracketing with basis vectors."""
    n = len(tensor)
    span = Subspace(field, n, seeds)
    while True:
        fresh = []
        for w in span.rows:
            for i in range(n):
                for v in (_vec_bracket_basis(field, tensor, w, i),
                          _basis_bracket_vec(field, tensor, i, w)):
                    if not span.contains(v):
                        fresh.append(v)
        if not fresh:
            return span
        span = span.with_vectors(fresh)


def leibniz_kernel(field, tensor) -> Subspace:
    """The ideal generated by all squares, seeded by [v_i, v_i] and the
    symmetrized products [v_i, v_j] + [v_j, v_i]."""
    n = len(tensor)
    seeds = []
    for i in range(n):
        seeds.append(tensor[i][i])
        for j in range(i + 1, n):
            seeds.append(tuple(a + b for a, b in
                               zip(tensor[i][j], tensor[j][i])))
    return ideal_closure(field, tensor, seeds)


def is_ideal(field, tensor, subspace: Subspace) -> bool:
    n = len(tensor)
    for s in subspace.rows:
        for i in range(n):
            e = unit_vector(field, n, i)
            if not subspace.contains(product(field, tensor, s, e)):
                return False
            if not subspace.contains(product(field, tensor, e, s)):
                return False
    return True


def enumerate_basis_ideals(field, tensor) -> list:
    """Every basis subset whose span passes is_ideal, tried one bitmask
    at a time over all 2^n subsets, in increasing bitmask order."""
    n = len(tensor)
    found = []
    for mask in range(1 << n):
        subset = tuple(i for i in range(n) if mask >> i & 1)
        if is_ideal(field, tensor,
                    Subspace.from_basis_indices(field, n, subset)):
            found.append(subset)
    return found
