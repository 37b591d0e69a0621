"""Algebra maps between bases: automorphism checking, change of basis,
and transporting graph facts along a claimed vertex bijection.

A LinearMap stores an n x n matrix whose COLUMNS are the images of the
basis vectors, all in the coordinates the caller fixes.  Nothing here
searches for isomorphisms; these are certificate checkers.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Mapping, Optional, Sequence

from .algebra import LeibnizAlgebra
from .errors import (
    BadBijectionError,
    DimensionMismatchError,
    FieldMismatchError,
    InternalInvariantViolation,
    NotLeibnizError,
    SingularMapError,
)
from .graphs import DiGraph
from .scalars import (
    FieldSpec,
    add_scaled,
    echelon,
    prune,
    to_dense,
    to_sparse,
    unit_vector,
)
from .structure import Decomposition

__all__ = [
    "LinearMap",
    "change_basis",
    "decomposition_equivalence",
    "induced_graph_isomorphism",
    "is_automorphism",
    "maps_basis_to_basis",
]


@dataclass(frozen=True)
class LinearMap:
    """A square matrix over an exact field; column j is the image of v_j."""

    field: FieldSpec
    matrix: tuple  # rows, each a tuple of field values
    # nonzero entries by row, {j: matrix[a][j]}, and by column,
    # {a: matrix[a][j]}; derived from matrix
    _rows: tuple = dc_field(init=False, compare=False, repr=False)
    _cols: tuple = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = len(self.matrix)
        rows = []
        for row in self.matrix:
            if len(row) != n:
                raise DimensionMismatchError("matrix must be square")
            for s in row:
                if not self.field.is_element(s):
                    raise FieldMismatchError("matrix entry of a foreign field")
            rows.append(tuple(row))
        object.__setattr__(self, "matrix", tuple(rows))
        object.__setattr__(self, "_rows",
                           tuple(to_sparse(row) for row in rows))
        object.__setattr__(self, "_cols",
                           tuple(to_sparse(col) for col in zip(*rows)))

    @property
    def dim(self) -> int:
        return len(self.matrix)

    @classmethod
    def from_columns(cls, field: FieldSpec, columns: Sequence) -> "LinearMap":
        n = len(columns)
        for col in columns:
            if len(col) != n:
                raise DimensionMismatchError("columns must have length n")
        rows = tuple(
            tuple(columns[j][i] for j in range(n)) for i in range(n)
        )
        return cls(field, rows)

    @classmethod
    def identity(cls, field: FieldSpec, n: int) -> "LinearMap":
        return cls.from_columns(
            field, [unit_vector(field, n, i) for i in range(n)]
        )

    @classmethod
    def permutation(cls, field: FieldSpec, images: Sequence[int]
                    ) -> "LinearMap":
        """The map v_j -> v_images[j]."""
        n = len(images)
        if sorted(images) != list(range(n)):
            raise BadBijectionError("images must be a permutation of range(n)")
        return cls.from_columns(
            field, [unit_vector(field, n, images[j]) for j in range(n)]
        )

    def column(self, j: int):
        return tuple(self.matrix[i][j] for i in range(self.dim))

    def _apply_sparse(self, x: dict) -> dict:
        acc: dict = {}
        for j, xj in x.items():
            add_scaled(acc, xj, self._cols[j])
        return prune(self.field, acc)

    def apply(self, x):
        """Matrix-vector product: the image of a coordinate vector."""
        if len(x) != self.dim:
            raise DimensionMismatchError("vector length != map dimension")
        return to_dense(self.field, self.dim, self._apply_sparse(to_sparse(x)))

    def is_invertible(self) -> bool:
        return len(echelon(self.field, self._rows)) == self.dim

    def inverse(self) -> "LinearMap":
        """The inverse, read off the row echelon form of [M | I]; raises
        SingularMapError when M is singular."""
        n, one, zero = self.dim, self.field.one, self.field.zero
        basis = echelon(self.field, ({**row, n + a: one}
                                     for a, row in enumerate(self._rows)))
        if sorted(basis) != list(range(n)):
            raise SingularMapError("matrix is singular")
        return LinearMap(self.field, tuple(
            tuple(basis[a].get(n + j, zero) for j in range(n))
            for a in range(n)))


def _image_products(algebra: LeibnizAlgebra, f: LinearMap) -> dict:
    """{(i, j): [f(v_i), f(v_j)]} over the nonzero brackets, unnormalised.

    [f(v_i), f(v_j)] = sum over products [v_a, v_b] of f_ai f_bj [v_a, v_b],
    so only nonzero products and nonzero matrix entries are visited."""
    out: dict = {}
    rows = f._rows
    for (a, b), coords in algebra.products.items():
        for i, fa in rows[a].items():
            for j, fb in rows[b].items():
                add_scaled(out.setdefault((i, j), {}), fa * fb, coords)
    return out


def is_automorphism(algebra: LeibnizAlgebra, f: LinearMap):
    """Check f([v_i, v_j]) = [f(v_i), f(v_j)] on all basis pairs.

    Returns (True, None) or (False, (i, j)) for the first failing pair in
    row-major order.  Raises SingularMapError when f is not invertible;
    bijectivity is part of being an automorphism, not a failure witness.
    """
    if f.dim != algebra.dim:
        raise DimensionMismatchError("map dimension != algebra dimension")
    if f.field != algebra.field:
        raise FieldMismatchError("map field != algebra field")
    if not f.is_invertible():
        raise SingularMapError("candidate automorphism is singular")
    field = algebra.field
    images = _image_products(algebra, f)
    failing = [
        pair for pair in images.keys() | algebra.products.keys()
        if prune(field, images.get(pair, {}))
        != f._apply_sparse(algebra.products.get(pair, {}))
    ]
    if failing:
        return False, min(failing)
    return True, None


def maps_basis_to_basis(f: LinearMap,
                        target_labels: Sequence[str]) -> Optional[dict]:
    """If every column of f is exactly a unit vector in the coordinates of
    the target basis (coefficient 1, no scalar slack) and those units are
    pairwise distinct, return the vertex bijection {source j: target i}.
    Otherwise return None."""
    n = f.dim
    if len(target_labels) != n:
        raise DimensionMismatchError("target basis has wrong size")
    one = f.field.one
    bijection: dict = {}
    hit = set()
    for j, col in enumerate(f._cols):
        if len(col) != 1:
            return None
        ((i, c),) = col.items()
        if c != one or i in hit:
            return None
        hit.add(i)
        bijection[j] = i
    return bijection


def change_basis(algebra: LeibnizAlgebra, f: LinearMap,
                 new_labels: Optional[Sequence[str]] = None
                 ) -> LeibnizAlgebra:
    """Rewrite the algebra in the basis b_j = f(v_j).

    The new structure constants are exact: [b_i, b_j] computed in old
    coordinates, then expressed through f^{-1}.  The Leibniz identity is
    re-verified on the result; it holds automatically under any invertible
    change of basis, so a failure is an internal bug, not bad input.
    """
    if f.dim != algebra.dim:
        raise DimensionMismatchError("map dimension != algebra dimension")
    f_inv = f.inverse()  # SingularMapError if not invertible
    products = {
        pair: f_inv._apply_sparse(bracket)
        for pair, bracket in _image_products(algebra, f).items()
    }
    labels = tuple(new_labels) if new_labels is not None else algebra.labels
    try:
        return LeibnizAlgebra(algebra.field, labels, products, check=True)
    except NotLeibnizError as exc:  # pragma: no cover - guards a theorem
        raise InternalInvariantViolation(
            "change of basis broke the Leibniz identity"
        ) from exc


def _check_bijection(vertices_a, vertices_b, bijection: Mapping) -> None:
    va, vb = set(vertices_a), set(vertices_b)
    if set(bijection.keys()) != va:
        raise BadBijectionError("bijection domain differs from first graph")
    image = list(bijection.values())
    if len(set(image)) != len(image) or set(image) != vb:
        raise BadBijectionError("bijection image differs from second graph")


def induced_graph_isomorphism(graph_a: DiGraph, graph_b: DiGraph,
                              bijection: Mapping) -> bool:
    """True iff the vertex bijection carries the edge set of the first
    graph exactly onto the edge set of the second."""
    _check_bijection(graph_a.vertices, graph_b.vertices, bijection)
    mapped = {(bijection[a], bijection[b]) for a, b in graph_a.edges}
    return mapped == set(graph_b.edges)


def decomposition_equivalence(dec_a: Decomposition, dec_b: Decomposition,
                              bijection: Mapping) -> bool:
    """True iff the bijection matches the component parts one-to-one:
    the image of each part's vertex set is exactly one part of the other
    decomposition, and every part is hit exactly once."""
    verts_a = [v for part in dec_a.parts for v in part.vertices]
    verts_b = [v for part in dec_b.parts for v in part.vertices]
    _check_bijection(verts_a, verts_b, bijection)
    targets = {part.vertices: idx for idx, part in enumerate(dec_b.parts)}
    seen = set()
    for part in dec_a.parts:
        image = tuple(sorted(bijection[v] for v in part.vertices))
        idx = targets.get(image)
        if idx is None or idx in seen:
            return False
        seen.add(idx)
    return len(seen) == len(dec_b.parts)
