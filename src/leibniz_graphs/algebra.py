"""Finite-dimensional Leibniz algebras given by exact structure constants.

Conventions used throughout:

* the bracket is bilinear and satisfies the (right) Leibniz identity
      [[y, z], x] = [[y, x], z] + [y, [z, x]];
* ``products[(i, j)]`` holds the nonzero coordinates of ``[v_i, v_j]`` as
  ``{k: c}``, so ``[v_i, v_j] = sum_k c_k * v_k``; absent pairs multiply
  to zero, and every ``c`` is a canonical value of the field;
* the kernel ideal is the smallest ideal containing every square
  ``[x, x]``; the bracket kills it on the right: ``[L, kernel] = 0``;
* a multiplicative basis has every basis product equal to a scalar
  multiple of a single basis vector, and respects the kernel split:
  products out of a kernel vector stay in the kernel part, products
  into a kernel vector vanish.

Only nonzero products are stored, and every loop below walks them, so
work scales with the number of nonzero structure constants rather than
with dim^3.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from itertools import chain
from typing import Iterable, Mapping, Sequence

from .errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidSplitError,
    NotLeibnizError,
    NotMonomialError,
    ShapeViolationError,
)
from .scalars import (
    FieldSpec,
    Subspace,
    add_scaled,
    add_scaled_pairs,
    as_pairs,
    echelon,
    prune,
    to_dense,
    to_sparse,
    unit_vector,
)

__all__ = [
    "BasisSplit",
    "LeibnizAlgebra",
    "MultiplicativeTable",
    "check_leibniz",
    "ideal_closure",
    "leibniz_kernel",
    "product",
    "to_multiplicative",
    "validate_split",
]


class LeibnizAlgebra:
    """An algebra over an exact field, defined by its nonzero products.

    ``products`` maps basis index pairs (i, j) to ``{k: c}``, the nonzero
    coordinates of [v_i, v_j].  Zero coefficients and empty entries are
    dropped, so equal algebras hold equal mappings.

    By default the constructor verifies the Leibniz identity on all basis
    triples and raises NotLeibnizError on failure.  Pass ``check=False``
    to hold structure constants that are not yet known to satisfy it
    (validators and generators need this); such an instance reports
    ``identity_verified == False`` until a full check has run.
    """

    __slots__ = ("field", "labels", "products", "identity_verified",
                 "_left", "_right")

    def __init__(self, field: FieldSpec, labels: Sequence[str],
                 products: Mapping, *, check: bool = True):
        labels = tuple(str(x) for x in labels)
        if len(set(labels)) != len(labels):
            raise ValueError("basis labels must be unique")
        n = len(labels)
        table = {}
        for (i, j), coords in sorted(products.items()):
            if not all(0 <= x < n for x in (i, j, *coords)):
                raise DimensionMismatchError(
                    f"product ({i},{j}) has an index outside dimension {n}"
                )
            if not all(map(field.is_element, coords.values())):
                raise FieldMismatchError(
                    f"product ({i},{j}) holds a value foreign to {field}"
                )
            coords = {k: c for k, c in sorted(coords.items()) if c}
            if coords:
                table[(i, j)] = coords
        left = [{} for _ in range(n)]
        right = [{} for _ in range(n)]
        for (i, j), coords in table.items():
            left[i][j] = coords
            right[j][i] = coords
        self.field = field
        self.labels = labels
        self.products = table
        # left[i] = {j: [v_i, v_j]} and right[j] = {i: [v_i, v_j]}, over
        # nonzero products only
        self._left = tuple(left)
        self._right = tuple(right)
        self.identity_verified = False
        if check:
            violations = check_leibniz(self)
            if violations:
                raise NotLeibnizError(violations)
            self.identity_verified = True

    @property
    def dim(self) -> int:
        return len(self.labels)

    def index_of(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"no basis vector labelled {label!r}") from None

    def unit(self, i: int):
        return unit_vector(self.field, self.dim, i)

    def __eq__(self, other):
        if not isinstance(other, LeibnizAlgebra):
            return NotImplemented
        return (self.field == other.field and self.labels == other.labels
                and self.products == other.products)

    def __hash__(self):
        return hash((self.field, self.labels, tuple(
            (pair, tuple(coords.items()))
            for pair, coords in self.products.items()
        )))

    def __repr__(self):
        return (f"LeibnizAlgebra({self.field}, dim={self.dim}, "
                f"labels={list(self.labels)})")

    @classmethod
    def from_products(cls, field: FieldSpec, labels: Sequence[str],
                      products: Mapping, *, check: bool = True
                      ) -> "LeibnizAlgebra":
        """Build from a sparse map {(left, right): (out, coeff)} on labels.

        Coefficients may be ints or Fractions; unlisted products are
        zero.  A coefficient that vanishes in the field is rejected so
        that characteristic problems surface here, not later.
        """
        labels = tuple(str(x) for x in labels)
        index = {lab: i for i, lab in enumerate(labels)}
        table = {}
        for (left, right), (out, coeff) in products.items():
            c = field.scalar(coeff)
            if not c:
                raise ValueError(
                    f"product [{left},{right}] has coefficient {coeff}, "
                    f"which is zero in {field}"
                )
            table[(index[left], index[right])] = {index[out]: c}
        return cls(field, labels, table, check=check)


def _mark_verified(algebra: LeibnizAlgebra) -> LeibnizAlgebra:
    # Internal: used after an explicit full check, or for products derived
    # from a verified algebra by an identity-preserving construction.
    algebra.identity_verified = True
    return algebra


def product(algebra: LeibnizAlgebra, x, y):
    """The bracket [x, y] of two coordinate vectors, exactly."""
    n = algebra.dim
    if len(x) != n or len(y) != n:
        raise DimensionMismatchError(
            f"operands must have length {n}, got {len(x)} and {len(y)}"
        )
    acc: dict = {}
    for i, xi in enumerate(x):
        if xi:
            for j, coords in algebra._left[i].items():
                yj = y[j]
                if yj:
                    add_scaled(acc, xi * yj, coords)
    return to_dense(algebra.field, n, prune(algebra.field, acc))


def basis_brackets(algebra: LeibnizAlgebra, w: dict):
    """Every nonzero [w, v_i] and [v_i, w] of a sparse vector w, as sparse
    vectors; these span the brackets of w with the whole algebra on
    either side."""
    right: dict = {}   # i -> [w, v_i]
    left: dict = {}    # i -> [v_i, w]
    for m, wm in w.items():
        for i, coords in algebra._left[m].items():
            add_scaled(right.setdefault(i, {}), wm, coords)
        for i, coords in algebra._right[m].items():
            add_scaled(left.setdefault(i, {}), wm, coords)
    field = algebra.field
    for acc in (*right.values(), *left.values()):
        v = prune(field, acc)
        if v:
            yield v


def unit_brackets(algebra: LeibnizAlgebra, m: int):
    """Every nonzero [v_m, v_i] and [v_i, v_m], as the stored product
    coordinates; these span the brackets of v_m with the whole algebra.
    Nothing is computed: the row and column indexes hold them."""
    return chain(algebra._left[m].values(), algebra._right[m].values())


def check_leibniz(algebra: LeibnizAlgebra, *, stop_early: bool = False):
    """All basis triples violating the identity, with their residuals.

    Returns a list of (i, j, k, residual) where residual are the
    coordinates of [[v_j, v_k], v_i] - [[v_j, v_i], v_k] - [v_j, [v_k, v_i]].
    The list is empty iff the identity holds on the whole algebra:
    both sides are trilinear, so basis triples decide it.  With
    ``stop_early`` the scan returns at the first violation (rejection
    sampling does not need the full list).

    A term can be nonzero only along a two-step product path:
    [[v_j, v_k], v_i] needs k in row j, some m in the support of
    [v_j, v_k] and i in row m; [[v_j, v_i], v_k] the same with k and i
    swapped; [v_j, [v_k, v_i]] some m in the support of [v_k, v_i] with
    [v_j, v_m] nonzero.  Only the triples on such a path are visited,
    still in (j, k, i) order, and every other residual is identically
    zero.  With P such paths the check costs O(P log P); P is about
    three times the number of nonzero products on the corpus families.

    Over Q each coefficient is read once as an integer pair (numerator,
    denominator) and a residual is summed unreduced on such pairs
    (``add_scaled_pairs``); a Fraction is built only for a coordinate of
    a residual that is reported.  Over GF(p) the sums are plain ints,
    reduced by ``prune``.
    """
    n = algebra.dim
    field = algebra.field
    if field.is_rationals:
        # every coefficient read once as an integer pair
        left = [{i: as_pairs(coords) for i, coords in row.items()}
                for row in algebra._left]
        add, neg, settle = add_scaled_pairs, _neg_pair, _fractions
    else:
        left, add, neg = algebra._left, add_scaled, operator.neg

        def settle(acc):
            return prune(field, acc)
    # into[m]: every (k, i), coded k * n + i, with m in supp [v_k, v_i]
    into = [[] for _ in range(n)]
    for (k, i), coords in algebra.products.items():
        for m in coords:
            into[m].append(k * n + i)
    violations = []
    for j in range(n):
        row_j = left[j]
        if not row_j:      # every term brackets v_j on the left
            continue
        pairs = set()
        for x, jx in row_j.items():
            for m in jx:
                for y in left[m]:
                    pairs.add(x * n + y)   # k = x, i = y: [[v_j, v_k], v_i]
                    pairs.add(y * n + x)   # i = x, k = y: [[v_j, v_i], v_k]
            pairs.update(into[x])          # m = x: [v_j, [v_k, v_i]]
        for pair in sorted(pairs):
            k, i = divmod(pair, n)
            acc: dict = {}
            jk = row_j.get(k)
            if jk is not None:            # [[v_j, v_k], v_i]
                for m, c in jk.items():
                    coords = left[m].get(i)
                    if coords is not None:
                        add(acc, c, coords)
            ji = row_j.get(i)
            if ji is not None:            # - [[v_j, v_i], v_k]
                for m, c in ji.items():
                    coords = left[m].get(k)
                    if coords is not None:
                        add(acc, neg(c), coords)
            ki = left[k].get(i)
            if ki is not None:            # - [v_j, [v_k, v_i]]
                for m, c in ki.items():
                    coords = row_j.get(m)
                    if coords is not None:
                        add(acc, neg(c), coords)
            residual = settle(acc)
            if residual:
                violations.append((i, j, k, to_dense(field, n, residual)))
                if stop_early:
                    return violations
    if not violations:
        algebra.identity_verified = True
    return violations


def _neg_pair(c: tuple) -> tuple:
    return -c[0], c[1]


def _fractions(acc: dict) -> dict:
    """The nonzero values of a sparse vector of integer pairs, as
    canonical Fractions."""
    return {k: Fraction(num, den) for k, (num, den) in acc.items() if num}


def _ensure_leibniz(algebra: LeibnizAlgebra):
    if not algebra.identity_verified:
        violations = check_leibniz(algebra)
        if violations:
            raise NotLeibnizError(violations)


def _close(algebra: LeibnizAlgebra, seeds: Iterable[dict]) -> Subspace:
    """The span of the seeds closed under brackets with basis vectors on
    both sides, as a reduced echelon subspace.

    Worklist closure: every vector that enters the span has its basis
    brackets reduced into it once.  The vectors that entered span the
    ideal, so bilinearity makes that enough.

    Two shortcuts skip the field arithmetic.  While every row is a unit
    row {w: one}, a vector whose support lies in the pivots adds nothing
    and a monomial c * v_w adds the row {w: one}; the first vector that
    would add a row with two entries goes through ``echelon``, and so
    does every vector after it.  And the brackets of a monomial c * v_m
    span what the brackets of v_m span, which the product indexes hold
    (``unit_brackets``).  On a multiplicative basis a closure of basis
    vectors takes only shortcuts.  The reduced echelon form of a span is
    unique, so they do not change the result.
    """
    field = algebra.field
    one = field.one
    left, right = algebra._left, algebra._right
    basis: dict = {}
    queue: list = []      # admitted vectors whose brackets are unread
    unit_rows = True      # every row of basis is a unit row
    vectors = seeds
    while True:
        for v in vectors:
            if unit_rows:
                if len(v) == 1:
                    (w,) = v
                    if w not in basis:
                        basis[w] = {w: one}
                        queue.append(v)
                    continue
                if basis.keys() >= v.keys():
                    continue
                unit_rows = False
            rank = len(basis)
            echelon(field, [v], basis)
            if len(basis) > rank:
                queue.append(v)
        if not queue:
            return Subspace.from_echelon(field, algebra.dim, basis)
        v = queue.pop()
        if len(v) == 1:
            (m,) = v      # unit_brackets(algebra, m), inlined
            vectors = chain(left[m].values(), right[m].values())
        else:
            vectors = basis_brackets(algebra, v)


def ideal_closure(algebra: LeibnizAlgebra, seed_vectors: Iterable) -> Subspace:
    """Smallest subspace containing the seeds and closed under bracketing
    with basis vectors on both sides."""
    n = algebra.dim
    seeds = []
    for v in seed_vectors:
        if len(v) != n:
            raise DimensionMismatchError(
                f"seed length {len(v)} != ambient dimension {n}"
            )
        seeds.append(to_sparse(v))
    return _close(algebra, seeds)


def unit_ideal(algebra: LeibnizAlgebra, m: int) -> Subspace:
    """The ideal generated by the basis vector v_m, closed from the
    sparse seed {m: one}; no dense coordinate tuple is built."""
    return _close(algebra, [{m: algebra.field.one}])


def leibniz_kernel(algebra: LeibnizAlgebra) -> Subspace:
    """The ideal generated by all squares [x, x].

    Squares of basis vectors alone do not span enough: expanding
    [x, x] for x = v_i + v_j shows the symmetrized products
    [v_i, v_j] + [v_j, v_i] are needed as seeds too.
    """
    _ensure_leibniz(algebra)
    field = algebra.field
    products = algebra.products
    seeds = []
    for (i, j), coords in products.items():
        if i == j:
            seeds.append(coords)
        elif i < j or (j, i) not in products:
            acc = dict(coords)
            add_scaled(acc, 1, products.get((j, i), {}))
            seeds.append(prune(field, acc))
    return _close(algebra, seeds)


@dataclass(frozen=True)
class BasisSplit:
    """A partition of basis indices into kernel part and complement part.

    Validity (that the kernel part spans the computed kernel ideal) is a
    separate check, validate_split; the constructor only enforces that
    the two index sets partition range(dim).
    """

    kernel: tuple
    complement: tuple

    def __post_init__(self):
        k = tuple(sorted(self.kernel))
        j = tuple(sorted(self.complement))
        object.__setattr__(self, "kernel", k)
        object.__setattr__(self, "complement", j)
        n = len(k) + len(j)
        if set(k) & set(j):
            raise ValueError("kernel and complement parts overlap")
        if set(k) | set(j) != set(range(n)):
            raise ValueError("split does not cover range(dim) exactly")

    @classmethod
    def of(cls, dim: int, kernel_indices: Iterable[int]) -> "BasisSplit":
        kernel = tuple(sorted(set(kernel_indices)))
        members = set(kernel)
        complement = tuple(i for i in range(dim) if i not in members)
        return cls(kernel, complement)

    @property
    def dim(self) -> int:
        return len(self.kernel) + len(self.complement)


def validate_split(algebra: LeibnizAlgebra, split: BasisSplit) -> bool:
    """True iff span{v_k : k in kernel part} equals the computed kernel."""
    if split.dim != algebra.dim:
        raise DimensionMismatchError(
            f"split covers {split.dim} indices, algebra has {algebra.dim}"
        )
    declared = Subspace.from_basis_indices(
        algebra.field, algebra.dim, split.kernel
    )
    return declared == leibniz_kernel(algebra)


@dataclass(frozen=True, eq=True)
class MultiplicativeTable:
    """Sparse view of an algebra whose basis products are all monomial.

    entries maps (i, j) to (k, coeff) meaning [v_i, v_j] = coeff * v_k
    with coeff nonzero; absent pairs multiply to zero.
    """

    field: FieldSpec
    labels: tuple
    entries: tuple  # sorted tuple of ((i, j), (k, coeff))
    _lookup: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_lookup", dict(self.entries))

    @property
    def dim(self) -> int:
        return len(self.labels)

    def as_dict(self) -> dict:
        return dict(self._lookup)

    def get(self, i: int, j: int):
        return self._lookup.get((i, j))

    def to_products(self) -> dict:
        """The structure constants in ``LeibnizAlgebra.products`` form."""
        return {pair: {k: coeff} for pair, (k, coeff) in self.entries}


def to_multiplicative(algebra: LeibnizAlgebra, split: BasisSplit, *,
                      validate: bool = True) -> MultiplicativeTable:
    """Extract the sparse monomial table, enforcing the split shape.

    Shape rules (K = kernel part, J = complement part):
      * any product with right factor in K must vanish;
      * a product out of a K vector must land in the K part;
      * products of two J vectors may land in either part.
    Raises NotMonomialError if some product has two nonzero coordinates,
    ShapeViolationError if a rule above fails, InvalidSplitError when
    ``validate`` is set and the declared split is not the kernel.
    """
    if validate and not validate_split(algebra, split):
        raise InvalidSplitError(
            "declared kernel part does not span the computed kernel ideal"
        )
    kernel = set(split.kernel)
    entries = []
    for (i, j), coords in algebra.products.items():
        if len(coords) > 1:
            raise NotMonomialError(
                i, j, f"support at coordinates {list(coords)}"
            )
        ((k, c),) = coords.items()
        if j in kernel:
            raise ShapeViolationError(
                i, j, "right factor lies in the kernel part but the "
                      "product is nonzero"
            )
        if i in kernel and k not in kernel:
            raise ShapeViolationError(
                i, j, "product out of a kernel vector leaves the "
                      "kernel part"
            )
        entries.append(((i, j), (k, c)))
    return MultiplicativeTable(algebra.field, algebra.labels, tuple(entries))
