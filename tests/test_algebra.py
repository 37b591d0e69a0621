"""Core algebra layer: identity check, kernel ideal, split and table."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

import leibniz_graphs.algebra as algebra_module
from leibniz_graphs.algebra import (
    BasisSplit,
    LeibnizAlgebra,
    check_leibniz,
    ideal_closure,
    leibniz_kernel,
    product,
    to_multiplicative,
    validate_split,
)
from leibniz_graphs.corpus import filiform, five_dim, odd_family, ud_component
from leibniz_graphs.errors import (
    DimensionMismatchError,
    FieldMismatchError,
    InvalidSplitError,
    NotLeibnizError,
    NotMonomialError,
    ShapeViolationError,
)
from leibniz_graphs.scalars import FieldSpec, Subspace, unit_vector
from vectors import vec_add, zero_vector

Q = FieldSpec.rationals()

FIVE_DIM_PRODUCTS = {
    ("e", "h"): ("e", 2), ("h", "e"): ("e", -2),
    ("h", "f"): ("f", 2), ("f", "h"): ("f", -2),
    ("e", "f"): ("h", 1), ("f", "e"): ("h", -1),
    ("p", "h"): ("p", 1), ("q", "e"): ("p", -1),
    ("p", "f"): ("q", 1), ("q", "h"): ("q", -1),
}
LABELS = ("e", "h", "f", "p", "q")


def _broken_products():
    # replace [e,f] = h by [e,f] = e; the identity then fails
    prods = dict(FIVE_DIM_PRODUCTS)
    prods[("e", "f")] = ("e", 1)
    return prods


def _plain_bracket(prods, x, y):
    """Reference bracket on label->Fraction dicts, independent of the
    package's vector layer."""
    out = {}
    for (a, b), (c, coeff) in prods.items():
        term = x.get(a, 0) * y.get(b, 0) * Fraction(coeff)
        if term:
            out[c] = out.get(c, 0) + term
    return {k: v for k, v in out.items() if v}


def test_five_dim_satisfies_identity():
    alg, _ = five_dim()
    assert check_leibniz(alg) == []
    assert alg.identity_verified


def test_five_dim_table_matches_frozen_products():
    alg, _ = five_dim()
    rebuilt = LeibnizAlgebra.from_products(Q, LABELS, FIVE_DIM_PRODUCTS)
    assert alg == rebuilt


def test_broken_five_dim_raises_and_reports_witness():
    with pytest.raises(NotLeibnizError) as exc:
        LeibnizAlgebra.from_products(Q, LABELS, _broken_products())
    assert exc.value.violations

    alg = LeibnizAlgebra.from_products(
        Q, LABELS, _broken_products(), check=False
    )
    violations = check_leibniz(alg)
    residuals = {(i, j, k): r for i, j, k, r in violations}
    # frozen witness: i=h, j=e, k=f gives residual 2e
    want = tuple(Q.scalar(c) for c in (2, 0, 0, 0, 0))
    assert residuals[(1, 0, 2)] == want


def test_broken_residual_agrees_with_plain_arithmetic():
    # recompute the (h, e, f) residual with dict arithmetic only
    prods = _broken_products()
    e = {"e": Fraction(1)}
    h = {"h": Fraction(1)}
    f = {"f": Fraction(1)}
    b = lambda x, y: _plain_bracket(prods, x, y)
    lhs = b(b(e, f), h)
    mid = b(b(e, h), f)
    rhs = b(e, b(f, h))
    residual = dict(lhs)
    for term in (mid, rhs):
        for key, val in term.items():
            residual[key] = residual.get(key, 0) - val
    residual = {k: v for k, v in residual.items() if v}
    assert residual == {"e": Fraction(2)}


def test_stop_early_returns_single_violation():
    alg = LeibnizAlgebra.from_products(
        Q, LABELS, _broken_products(), check=False
    )
    first = check_leibniz(alg, stop_early=True)
    assert len(first) == 1
    assert first[0] in check_leibniz(alg)


def _plain_violations(alg):
    """Every basis triple violating the identity, found by trying all n^3
    of them with dict lookups on ``alg.products`` and Python arithmetic
    reduced mod p at the end; nothing is shared with check_leibniz."""
    n, prods, p = alg.dim, alg.products, alg.field.p
    found = []
    for j in range(n):
        for k in range(n):
            for i in range(n):
                r = [0] * n
                for m, c in prods.get((j, k), {}).items():
                    for t, d in prods.get((m, i), {}).items():
                        r[t] += c * d
                for m, c in prods.get((j, i), {}).items():
                    for t, d in prods.get((m, k), {}).items():
                        r[t] -= c * d
                for m, c in prods.get((k, i), {}).items():
                    for t, d in prods.get((j, m), {}).items():
                        r[t] -= c * d
                if p is not None:
                    r = [x % p for x in r]
                if any(r):
                    found.append((i, j, k, tuple(r)))
    return found


def _one_coefficient_mutants(alg, seed):
    """Three unchecked copies of alg, each with one structure constant
    changed: an existing coefficient shifted by one, a second coordinate
    set to one in a nonzero product, and a zero product set to a basis
    vector."""
    field, n = alg.field, alg.dim
    rng = random.Random(seed)
    pairs = sorted(alg.products)
    tables = []
    for change in ("shift", "widen", "plant"):
        table = {pair: dict(coords) for pair, coords in alg.products.items()}
        if change == "plant":
            pair = rng.choice([(i, j) for i in range(n) for j in range(n)
                               if (i, j) not in table])
            table[pair] = {rng.randrange(n): field.one}
        else:
            coords = table[rng.choice(pairs)]
            if change == "shift":
                k = rng.choice(sorted(coords))
                coords[k] = field.add(coords[k], field.one)
            else:
                coords[rng.choice([k for k in range(n)
                                   if k not in coords])] = field.one
        tables.append(table)
    return [LeibnizAlgebra(field, alg.labels, table, check=False)
            for table in tables]


@pytest.mark.parametrize("build", [
    pytest.param(lambda: odd_family(31), id="odd_family(31)/Q"),
    pytest.param(lambda: odd_family(31, FieldSpec.prime(998244353)),
                 id="odd_family(31)/GF(p)"),
    pytest.param(lambda: filiform(40), id="filiform(40)/Q"),
    pytest.param(lambda: filiform(40, FieldSpec.prime(3)),
                 id="filiform(40)/GF(3)"),
])
def test_identity_check_matches_plain_cubic_loop(build):
    alg, _split = build()
    assert check_leibniz(alg) == _plain_violations(alg) == []
    broken = 0
    for mutant in _one_coefficient_mutants(alg, alg.dim):
        want = _plain_violations(mutant)
        broken += bool(want)
        assert check_leibniz(mutant) == want
        assert check_leibniz(mutant, stop_early=True) == want[:1]
    assert broken


@pytest.mark.parametrize("build, n", [(filiform, 2000), (odd_family, 1201)])
def test_identity_check_visits_linearly_many_triples(build, n, monkeypatch):
    # check_leibniz settles one residual per visited triple, by prune over
    # GF(p) and by _fractions over Q; trying every i for each nonzero
    # [v_j, v_k] would make about E * n calls
    visited = []
    for name in ("prune", "_fractions"):
        real = getattr(algebra_module, name)

        def counting(*args, _real=real):
            visited.append(None)
            return _real(*args)

        monkeypatch.setattr(algebra_module, name, counting)
    counts = []
    for field in (Q, FieldSpec.prime(998244353)):
        alg, _split = build(n, field)
        visited.clear()
        assert check_leibniz(alg) == []
        assert 0 < len(visited) <= 4 * len(alg.products)
        counts.append(len(visited))
    # both tables have the same nonzero products, so the two arithmetic
    # paths visit the same triples
    assert counts[0] == counts[1]


def test_constructor_validates_shape():
    with pytest.raises(ValueError):
        LeibnizAlgebra(Q, ("a", "a"), {})
    with pytest.raises(DimensionMismatchError):
        LeibnizAlgebra(Q, ("a", "b"), {(0, 2): {0: Q.one}})
    with pytest.raises(DimensionMismatchError):
        LeibnizAlgebra(Q, ("a", "b"), {(0, 1): {2: Q.one}})
    with pytest.raises(FieldMismatchError):
        LeibnizAlgebra(Q, ("a", "b"), {(0, 1): {0: 1}})
    # zero coefficients are not stored, so they do not change equality
    assert LeibnizAlgebra(Q, ("a", "b"), {(0, 1): {0: Q.zero}}) == \
        LeibnizAlgebra(Q, ("a", "b"), {})


def test_from_products_rejects_vanishing_coefficient():
    with pytest.raises(ValueError):
        LeibnizAlgebra.from_products(Q, ("a", "b"), {("a", "b"): ("a", 0)})
    F2 = FieldSpec.prime(2)
    with pytest.raises(ValueError):
        LeibnizAlgebra.from_products(F2, ("a", "b"), {("a", "b"): ("a", 2)})


def test_product_is_bilinear():
    alg, _ = five_dim()
    rng = random.Random(20240817)
    for _ in range(25):
        x, y, z = (
            tuple(Q.scalar(rng.randint(-3, 3)) for _ in range(5))
            for _ in range(3)
        )
        lin = tuple(a + b for a, b in zip(x, y))
        left = product(alg, lin, z)
        split_sum = tuple(
            a + b for a, b in zip(product(alg, x, z), product(alg, y, z))
        )
        assert left == split_sum
        right = product(alg, z, lin)
        split_sum = tuple(
            a + b for a, b in zip(product(alg, z, x), product(alg, z, y))
        )
        assert right == split_sum


def test_product_dimension_mismatch():
    alg, _ = five_dim()
    with pytest.raises(DimensionMismatchError):
        product(alg, zero_vector(Q, 4), zero_vector(Q, 5))


def test_kernel_of_five_dim_is_span_p_q():
    alg, _ = five_dim()
    assert leibniz_kernel(alg) == Subspace.from_basis_indices(Q, 5, (3, 4))


def test_kernel_of_model_filiform():
    alg, split = filiform(5)
    assert leibniz_kernel(alg) == Subspace.from_basis_indices(
        Q, 5, (1, 2, 3, 4)
    )
    assert split.kernel == (1, 2, 3, 4)


def test_kernel_contains_all_squares():
    alg, _ = five_dim()
    kernel = leibniz_kernel(alg)
    rng = random.Random(99)
    for _ in range(40):
        x = tuple(Q.scalar(rng.randint(-4, 4)) for _ in range(5))
        y = tuple(Q.scalar(rng.randint(-4, 4)) for _ in range(5))
        assert kernel.contains(product(alg, x, x))
        sym = tuple(
            a + b for a, b in zip(product(alg, x, y), product(alg, y, x))
        )
        assert kernel.contains(sym)


def _right_annihilates(alg, subspace):
    """True iff [L, subspace] = 0, checked on basis vectors times rows."""
    return all(not any(product(alg, unit_vector(Q, alg.dim, i), w))
               for w in subspace.rows for i in range(alg.dim))


def test_right_annihilation_of_kernel():
    for alg in (five_dim()[0], filiform(6)[0], ud_component()[0]):
        assert _right_annihilates(alg, leibniz_kernel(alg))
    alg, _ = five_dim()
    not_kernel = Subspace.from_basis_indices(Q, 5, (0,))
    assert not _right_annihilates(alg, not_kernel)


def test_ideal_closure_golden_cases():
    alg, _ = five_dim()
    p_only = ideal_closure(alg, [unit_vector(Q, 5, 3)])
    assert p_only == Subspace.from_basis_indices(Q, 5, (3, 4))
    # the same span built four ways is one value: equal and equally
    # hashed, with its pivots in order however the rows were given
    e3, e4 = unit_vector(Q, 5, 3), unit_vector(Q, 5, 4)
    one = Q.one
    same = [
        Subspace.from_vectors(Q, 5, [vec_add(Q, e3, e4), e4]),
        Subspace.from_basis_indices(Q, 5, (4, 3, 4)),
        p_only,
        Subspace(Q, 5, {4: {4: one}, 3: {3: one}}),
    ]
    assert all(span == p_only for span in same)
    assert len({hash(span) for span in same}) == 1
    assert all(span.rows == (e3, e4) and span.pivots == (3, 4)
               for span in same)
    # equal pivots alone do not make equal spans
    assert Subspace.from_vectors(Q, 5, [vec_add(Q, e3, e4)]) != \
        Subspace.from_basis_indices(Q, 5, (3,))
    # e generates everything: closure climbs e -> h -> f and pulls in p, q
    e_closure = ideal_closure(alg, [unit_vector(Q, 5, 0)])
    assert e_closure.rank == 5


def test_basis_split_construction():
    split = BasisSplit.of(5, (4, 3))
    assert split.kernel == (3, 4)
    assert split.complement == (0, 1, 2)
    assert split.dim == 5
    with pytest.raises(ValueError):
        BasisSplit((0, 1), (1, 2))
    with pytest.raises(ValueError):
        BasisSplit((0,), (2,))


def test_validate_split():
    alg, _ = five_dim()
    assert validate_split(alg, BasisSplit.of(5, (3, 4)))
    assert not validate_split(alg, BasisSplit.of(5, (3,)))
    assert not validate_split(alg, BasisSplit.of(5, (2, 3, 4)))
    with pytest.raises(DimensionMismatchError):
        validate_split(alg, BasisSplit.of(4, (3,)))


def test_to_multiplicative_five_dim_entries():
    alg, _ = five_dim()
    table = to_multiplicative(alg, BasisSplit.of(5, (3, 4)))
    assert len(table.entries) == 10
    got = dict(table.entries)
    for (left, right), (out, coeff) in FIVE_DIM_PRODUCTS.items():
        i, j = LABELS.index(left), LABELS.index(right)
        assert got[(i, j)] == (LABELS.index(out), Q.scalar(coeff))
        assert table.get(i, j) == got[(i, j)]
    assert {pair: {k: c} for pair, (k, c) in got.items()} == alg.products


def test_to_multiplicative_rejects_wrong_split():
    alg, _ = five_dim()
    with pytest.raises(InvalidSplitError):
        to_multiplicative(alg, BasisSplit.of(5, (3,)))


def test_to_multiplicative_rejects_two_term_product():
    # [a,b] = c + d is a valid algebra but has no monomial table
    alg = LeibnizAlgebra(Q, ("a", "b", "c", "d"),
                         {(0, 1): {2: Q.one, 3: Q.one}})
    with pytest.raises(NotMonomialError) as exc:
        to_multiplicative(alg, BasisSplit.of(4, (2, 3)), validate=False)
    assert exc.value.pair == (0, 1)


def test_to_multiplicative_rejects_shape_violations():
    labels = ("k0", "u1", "u2")
    # nonzero product with right factor in the kernel part
    alg = LeibnizAlgebra(Q, labels, {(1, 0): {0: Q.one}}, check=False)
    with pytest.raises(ShapeViolationError) as exc:
        to_multiplicative(alg, BasisSplit.of(3, (0,)), validate=False)
    assert exc.value.pair == (1, 0)

    # product out of a kernel vector escaping the kernel part
    alg = LeibnizAlgebra(Q, labels, {(0, 1): {2: Q.one}}, check=False)
    with pytest.raises(ShapeViolationError) as exc:
        to_multiplicative(alg, BasisSplit.of(3, (0,)), validate=False)
    assert exc.value.pair == (0, 1)


def test_algebra_equality_and_lookup():
    a1, a2 = five_dim()[0], five_dim()[0]
    assert a1 == a2 and hash(a1) == hash(a2)
    assert a1.index_of("p") == 3
    with pytest.raises(KeyError):
        a1.index_of("z")
