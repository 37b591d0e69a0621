"""The sparse core against the dense reference in ``dense_reference``.

The reference holds a full tensor of Scalar objects and loops over every
coordinate; the package holds only nonzero products as raw values.  The
two share no arithmetic, so agreement here checks the fast route against
an independent one: identical violation lists (order and residuals
included), identical kernels and generated ideals, identical brackets,
identical ``is_ideal`` verdicts, and identical lists of basis ideals.

``enumerate_basis_ideals`` lists only the successor-closed basis subsets
and confirms each one with ``is_ideal``, so at run time it can catch a
listed set that is not an ideal but never an ideal it failed to list.
The brute-force reference tries all 2^n subsets with its own dense
``is_ideal``; equal lists here guard against a missed ideal.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dense_reference as ref
from leibniz_graphs.algebra import (
    LeibnizAlgebra,
    check_leibniz,
    ideal_closure,
    leibniz_kernel,
    product,
)
from leibniz_graphs.corpus import (
    filiform,
    five_dim,
    fuzz_instances,
    odd_family,
    standard_entries,
    ud_component,
)
from leibniz_graphs.scalars import FieldSpec, Subspace
from leibniz_graphs.structure import enumerate_basis_ideals, is_ideal

Q = FieldSpec.rationals()
BIG = FieldSpec.prime(998244353)
F5 = FieldSpec.prime(5)
# Every basis subset is compared up to this dimension; above it, a seeded
# sample of subsets plus all singletons and their complements.
SUBSET_DIM = 9
SAMPLED_SUBSETS = 40
# The basis-ideal listing is compared with the 2^n brute force up to this
# dimension.
LISTING_DIM = 12


def _reference_violations(alg, tensor) -> list:
    return [(i, j, k, ref.values(r))
            for i, j, k, r in ref.check_leibniz(alg.field, tensor)]


def _subsets(n: int, rng: random.Random):
    if n <= SUBSET_DIM:
        return [s for size in range(n + 1)
                for s in itertools.combinations(range(n), size)]
    everything = set(range(n))
    singletons = [(v,) for v in range(n)]
    complements = [tuple(sorted(everything - {v})) for v in range(n)]
    sampled = [tuple(sorted(rng.sample(range(n), rng.randint(2, n - 2))))
               for _ in range(SAMPLED_SUBSETS)]
    return [(), tuple(range(n))] + singletons + complements + sampled


def _random_vector(field, n, rng):
    if field.is_rationals:
        return tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3))
                     for _ in range(n))
    return tuple(rng.randrange(field.p) if rng.random() < 0.5 else 0
                 for _ in range(n))


def _assert_routes_agree(alg, rng):
    field, n = alg.field, alg.dim
    tensor = ref.dense_tensor(alg)
    assert check_leibniz(alg) == _reference_violations(alg, tensor)
    assert leibniz_kernel(alg).rows == \
        ref.leibniz_kernel(field, tensor).value_rows()
    for subset in _subsets(n, rng):
        got = is_ideal(alg, Subspace.from_basis_indices(field, n, subset))
        want = ref.is_ideal(field, tensor,
                            ref.Subspace.from_basis_indices(field, n, subset))
        assert got == want, subset
    for _ in range(3):
        x, y = _random_vector(field, n, rng), _random_vector(field, n, rng)
        assert product(alg, x, y) == ref.values(ref.product(
            field, tensor, ref.scalars(field, x), ref.scalars(field, y)))
        assert ideal_closure(alg, [x]).rows == ref.ideal_closure(
            field, tensor, [ref.scalars(field, x)]).value_rows()


INSTANCES = [
    pytest.param(entry.build, id=f"{entry.name}{entry.params or ''}")
    for entry in standard_entries()
] + [
    pytest.param(lambda: odd_family(15), id="odd_family(15)/Q"),
    pytest.param(lambda: odd_family(17, BIG), id="odd_family(17)/GF(p)"),
    pytest.param(lambda: filiform(15), id="filiform(15)/Q"),
]


@pytest.mark.parametrize("build", INSTANCES)
def test_sparse_core_matches_dense_reference(build, request):
    alg, _split = build()
    _assert_routes_agree(alg, random.Random(request.node.name))


# -- single-coefficient mutants --------------------------------------------

BASES = {
    "Q": [five_dim, lambda field: filiform(6, field),
          lambda field: odd_family(7, field), ud_component],
    "GF": [lambda field: five_dim(field), lambda field: filiform(5, field),
           lambda field: odd_family(7, field), ud_component],
}


@st.composite
def mutants(draw, field_name):
    field = Q if field_name == "Q" else draw(st.sampled_from((F5, BIG)))
    build = draw(st.sampled_from(BASES[field_name]))
    alg, _split = build(field)
    n = alg.dim
    products = {pair: dict(coords) for pair, coords in alg.products.items()}
    if field.is_rationals:
        value = st.fractions(min_value=-4, max_value=4, max_denominator=4)
    else:
        value = st.integers(min_value=0, max_value=field.p - 1)
    index = st.integers(min_value=0, max_value=n - 1)
    if draw(st.booleans()):
        # add one product term c * v_k to [v_i, v_j]
        i, j, k = draw(index), draw(index), draw(index)
        c = field.scalar(draw(value.filter(bool)))
        coords = products.setdefault((i, j), {})
        coords[k] = field.add(coords.get(k, field.zero), c)
    else:
        # perturb one existing coefficient, possibly to zero
        (i, j), coords = draw(st.sampled_from(sorted(products.items())))
        k = draw(st.sampled_from(sorted(coords)))
        delta = field.scalar(draw(value.filter(bool)))
        coords[k] = field.add(coords[k], delta)
    mutant = LeibnizAlgebra(field, alg.labels, products, check=False)
    subset = draw(st.lists(index, max_size=n, unique=True))
    return mutant, tuple(sorted(subset))


def _assert_unit_closures_agree(alg, tensor) -> int:
    """Compare the ideal of every basis vector with the reference; return
    how many of them are not spanned by basis vectors.  Each of those
    closures starts on unit rows and then meets a bracket with two or
    more coordinates."""
    field, n = alg.field, alg.dim
    mixed = 0
    for i in range(n):
        got = ideal_closure(alg, [alg.unit(i)])
        assert got.rows == ref.ideal_closure(
            field, tensor, [ref.unit_vector(field, n, i)]).value_rows(), i
        mixed += len(got.basis_members()) < got.rank
    return mixed


def _assert_mutant_agrees(mutant, subset):
    field, n = mutant.field, mutant.dim
    tensor = ref.dense_tensor(mutant)
    want = _reference_violations(mutant, tensor)
    assert check_leibniz(mutant, stop_early=True) == want[:1]
    assert check_leibniz(mutant) == want
    if not want:
        assert leibniz_kernel(mutant).rows == \
            ref.leibniz_kernel(field, tensor).value_rows()
    _assert_unit_closures_agree(mutant, tensor)
    got = is_ideal(mutant, Subspace.from_basis_indices(field, n, subset))
    assert got == ref.is_ideal(
        field, tensor, ref.Subspace.from_basis_indices(field, n, subset))
    assert enumerate_basis_ideals(mutant) == \
        ref.enumerate_basis_ideals(field, tensor)


@given(mutants("Q"))
@settings(max_examples=60, deadline=None)
def test_rational_mutants_match_dense_reference(drawn):
    _assert_mutant_agrees(*drawn)


@given(mutants("GF"))
@settings(max_examples=60, deadline=None)
def test_prime_field_mutants_match_dense_reference(drawn):
    _assert_mutant_agrees(*drawn)


# -- random tables with multi-coordinate products ---------------------------

RANDOM_TABLES = 300


def _random_table(rng):
    """An unchecked algebra of dimension 1-6 over GF(2), GF(3) or Q whose
    nonzero products have one to three coordinates each."""
    field = rng.choice((FieldSpec.prime(2), FieldSpec.prime(3), Q))
    n = rng.randint(1, 6)
    products = {}
    for _ in range(rng.randint(0, 2 * n)):
        coords = {}
        for _ in range(rng.randint(1, 3)):
            if field.is_rationals:
                c = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                             rng.randint(1, 3))
            else:
                c = rng.randrange(1, field.p)
            coords[rng.randrange(n)] = c
        products[(rng.randrange(n), rng.randrange(n))] = coords
    labels = tuple(f"v_{i}" for i in range(n))
    return LeibnizAlgebra(field, labels, products, check=False)


def test_random_tables_match_dense_reference():
    rng = random.Random(2024)
    broken = mixed = 0
    for _ in range(RANDOM_TABLES):
        alg = _random_table(rng)
        field, n = alg.field, alg.dim
        tensor = ref.dense_tensor(alg)
        want = _reference_violations(alg, tensor)
        broken += bool(want)
        assert check_leibniz(alg, stop_early=True) == want[:1]
        assert check_leibniz(alg) == want
        if not want:
            assert leibniz_kernel(alg).rows == \
                ref.leibniz_kernel(field, tensor).value_rows()
        mixed += _assert_unit_closures_agree(alg, tensor)
        # is_ideal on a span that is not a coordinate subspace
        x = _random_vector(field, n, rng)
        span = Subspace.from_vectors(field, n, [x])
        assert is_ideal(alg, span) == ref.is_ideal(
            field, tensor, ref.Subspace(field, n, [ref.scalars(field, x)]))
    # both verdicts occur, and closures that leave the unit rows
    assert 0 < broken < RANDOM_TABLES
    assert mixed > 0


# -- basis-ideal listing against the 2^n brute force -----------------------

def _assert_listing_complete(alg):
    assert enumerate_basis_ideals(alg) == \
        ref.enumerate_basis_ideals(alg.field, ref.dense_tensor(alg))


@pytest.mark.parametrize("alg", [
    pytest.param(alg, id=f"{entry.name}{entry.params or ''}")
    for entry in standard_entries()
    for alg, _split in [entry.build()]
    if alg.dim <= LISTING_DIM
])
def test_basis_ideals_of_the_corpus_match_brute_force(alg):
    _assert_listing_complete(alg)


@pytest.mark.parametrize("p", (5, 7))
def test_basis_ideals_of_fuzz_instances_match_brute_force(p):
    instances = fuzz_instances(seed=p, count=150, field=FieldSpec.prime(p))
    assert len(instances) == 150
    for alg, _split in instances:
        _assert_listing_complete(alg)


def test_every_subset_is_a_basis_ideal_without_products():
    alg = LeibnizAlgebra(F5, tuple(f"a_{i}" for i in range(LISTING_DIM)), {})
    everything = [tuple(i for i in range(LISTING_DIM) if mask >> i & 1)
                  for mask in range(1 << LISTING_DIM)]
    assert enumerate_basis_ideals(alg, bound=LISTING_DIM) == everything
    _assert_listing_complete(alg)
