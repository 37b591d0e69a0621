"""Dense coordinate-vector helpers that only the tests need.

The package stores subspaces sparsely and meets dense tuples only at its
API boundary; these build and combine such tuples for assertions."""

from __future__ import annotations

from leibniz_graphs.errors import DimensionMismatchError
from leibniz_graphs.scalars import Subspace


def zero_vector(field, n: int) -> tuple:
    return (field.zero,) * n


def vec_add(field, x: tuple, y: tuple) -> tuple:
    if len(x) != len(y):
        raise DimensionMismatchError(f"vector lengths {len(x)} != {len(y)}")
    return tuple(field.add(a, b) for a, b in zip(x, y))


def vec_scale(field, c, x: tuple) -> tuple:
    return tuple(field.mul(c, a) for a in x)


def vec_is_zero(x) -> bool:
    return not any(x)


def mat_mul(field, a, b) -> tuple:
    """The product of two square matrices given as tuples of rows."""
    columns = list(zip(*b))
    return tuple(tuple(field.normalise(sum(x * y for x, y in zip(row, col)))
                       for col in columns) for row in a)


def with_vectors(span: Subspace, vectors) -> Subspace:
    """The span of a subspace's rows together with more vectors."""
    return Subspace.from_vectors(span.field, span.ambient_dim,
                                 list(span.rows) + list(vectors))
