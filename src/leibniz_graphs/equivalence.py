"""Algebra maps between bases: automorphism checking, change of basis,
and transporting graph facts along a claimed vertex bijection.

A LinearMap stores an n x n matrix whose COLUMNS are the images of the
basis vectors, all in the coordinates the caller fixes.  Nothing here
searches for isomorphisms; these are certificate checkers.
"""

from __future__ import annotations

import operator
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
    add_scaled_pairs,
    as_pairs,
    echelon,
    prune,
    to_sparse,
    unit_vector,
)

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

    def _apply_sparse(self, x: dict) -> dict:
        acc: dict = {}
        for j, xj in x.items():
            add_scaled(acc, xj, self._cols[j])
        return prune(self.field, acc)

    def is_invertible(self) -> bool:
        """A monomial matrix (one nonzero entry per row, in distinct
        columns) is invertible as it stands; any other matrix is reduced
        to echelon form."""
        if (all(len(row) == 1 for row in self._rows)
                and len({j for row in self._rows for j in row}) == self.dim):
            return True
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


def _image_products(products: dict, rows: Sequence, add, mul) -> dict:
    """{(i, j): [f(v_i), f(v_j)]} over the nonzero brackets, unnormalised.

    [f(v_i), f(v_j)] = sum over products [v_a, v_b] of f_ai f_bj [v_a, v_b],
    so only nonzero products and nonzero matrix entries are visited.
    ``rows`` holds the nonzero entries of f by row, and ``add`` and ``mul``
    are the arithmetic of the values in ``products`` and ``rows``."""
    out: dict = {}
    for (a, b), coords in products.items():
        for i, fa in rows[a].items():
            for j, fb in rows[b].items():
                add(out.setdefault((i, j), {}), mul(fa, fb), coords)
    return out


def _mul_pairs(x: tuple, y: tuple) -> tuple:
    return x[0] * y[0], x[1] * y[1]


def _equal_pairs(x: dict, y: dict, p) -> bool:
    """Whether two sparse vectors of integer pairs hold the same values
    of Q (p None) or GF(p), compared by cross-multiplying."""
    for k in x.keys() | y.keys():
        xn, xd = x.get(k, (0, 1))
        yn, yd = y.get(k, (0, 1))
        diff = xn * yd - yn * xd
        if p is not None:
            diff %= p
        if diff:
            return False
    return True


def is_automorphism(algebra: LeibnizAlgebra, f: LinearMap):
    """Check f([v_i, v_j]) = [f(v_i), f(v_j)] on all basis pairs.

    Returns (True, None) or (False, (i, j)) for the first failing pair in
    row-major order.  Raises SingularMapError when f is not invertible;
    bijectivity is part of being an automorphism, not a failure witness.

    Both sides are summed on integer pairs (numerator, denominator)
    (``add_scaled_pairs``), so no field value is built per term.
    """
    if f.dim != algebra.dim:
        raise DimensionMismatchError("map dimension != algebra dimension")
    if f.field != algebra.field:
        raise FieldMismatchError("map field != algebra field")
    if not f.is_invertible():
        raise SingularMapError("candidate automorphism is singular")
    products = {pair: as_pairs(coords)
                for pair, coords in algebra.products.items()}
    cols = [as_pairs(col) for col in f._cols]
    images = _image_products(products, [as_pairs(row) for row in f._rows],
                             add_scaled_pairs, _mul_pairs)
    failing = []
    for pair in images.keys() | products.keys():
        mapped: dict = {}      # f([v_i, v_j])
        for k, c in products.get(pair, {}).items():
            add_scaled_pairs(mapped, c, cols[k])
        if not _equal_pairs(images.get(pair, {}), mapped, algebra.field.p):
            failing.append(pair)
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
        for pair, bracket in _image_products(algebra.products, f._rows,
                                             add_scaled, operator.mul).items()
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


def decomposition_equivalence(dec_a, dec_b, bijection: Mapping) -> bool:
    """True iff the bijection matches the component parts of two
    ``structure.Decomposition`` objects one-to-one: the image of each
    part's vertex set is exactly one part of the other decomposition, and
    every part is hit exactly once."""
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
