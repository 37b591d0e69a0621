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
    direct_sum,
    filiform,
    five_dim,
    fuzz_instances,
    odd_family,
    rescale_basis,
    standard_entries,
    ud_component,
)
from leibniz_graphs.equivalence import LinearMap, change_basis, is_automorphism
from leibniz_graphs.errors import SingularMapError
from leibniz_graphs.scalars import FieldSpec, Subspace, unit_vector
from leibniz_graphs.structure import (
    _GeneratorIdeals,
    enumerate_basis_ideals,
    is_ideal,
)
from vectors import mat_mul

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
    pytest.param(entry.instantiate, id=f"{entry.name}{entry.params or ''}")
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
        got = ideal_closure(alg, [unit_vector(field, n, i)])
        assert got.rows == ref.ideal_closure(
            field, tensor, [ref.unit_vector(field, n, i)]).value_rows(), i
        mixed += len(got.basis_members()) < got.rank
    return mixed


def _assert_generator_masks_agree(alg, tensor):
    """On a monomial table, the generator mask of every basis vector lists
    the basis vectors in the reference ideal it generates."""
    field, n = alg.field, alg.dim
    generators = _GeneratorIdeals(alg)
    for i in range(n):
        want = ref.ideal_closure(field, tensor, [ref.unit_vector(field, n, i)])
        assert generators.mask(i) == sum(
            1 << m for m in range(n)
            if want.contains(ref.unit_vector(field, n, m))), i


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
    if all(len(coords) == 1 for coords in mutant.products.values()):
        _assert_generator_masks_agree(mutant, tensor)
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


# -- distinct-prime denominators at scale -----------------------------------

def _primes(count: int) -> list:
    out, candidate = [], 2
    while len(out) < count:
        if all(candidate % q for q in out if q * q <= candidate):
            out.append(candidate)
        candidate += 1
    return out


class _TensorRow(dict):
    """Row i of ``ref.dense_tensor(algebra)``, each [v_i, v_j] built on
    first read: the whole tensor of a table with hundreds of basis
    vectors does not fit in memory."""

    def __init__(self, algebra, i):
        super().__init__()
        self.algebra, self.i = algebra, i

    def __missing__(self, j):
        field, n = self.algebra.field, self.algebra.dim
        coords = self.algebra.products.get((self.i, j), {})
        zero = ref.zero_vector(field, n)
        cell = self[j] = zero if not coords else tuple(
            ref.Scalar(field, coords[k]) if k in coords else zero[k]
            for k in range(n))
        return cell


def _triples_reading(products, n: int, a: int, b: int) -> list:
    """Every (j, k, i), in that order, whose residual reads [v_a, v_b] and
    has a term bracketing two nonzero products.

    [[v_j, v_k], v_i] is the sum over m in supp [v_j, v_k] of [v_m, v_i];
    [[v_j, v_i], v_k] the same with i and k swapped; [v_j, [v_k, v_i]] the
    sum over m in supp [v_k, v_i] of [v_j, v_m]."""
    def has_term(j, k, i):
        return (any((m, i) in products for m in products.get((j, k), ()))
                or any((m, k) in products for m in products.get((j, i), ()))
                or any((j, m) in products for m in products.get((k, i), ())))

    out = set()
    for x in range(n):
        out.update(((a, b, x), (a, x, b), (x, a, b)))
    for (p, q), coords in products.items():
        if a in coords:
            out.update(((p, q, b), (p, b, q)))
        if b in coords:
            out.add((a, p, q))
    return sorted(t for t in out if has_term(*t))


def _mutate(alg, rng, primes):
    """A copy of alg with one coefficient of one product [v_a, v_b]
    changed, by a value with a prime denominator, to zero, or from zero;
    returns (mutant, (a, b))."""
    products = {pair: dict(coords) for pair, coords in alg.products.items()}
    kind = rng.choice(("shift", "drop", "add", "add"))
    if kind == "add":
        pair = rng.randrange(alg.dim), rng.randrange(alg.dim)
        coords = products.setdefault(pair, {})
        k = rng.randrange(alg.dim)
    else:
        pair = rng.choice(sorted(products))
        coords = products[pair]
        k = rng.choice(sorted(coords))
    if kind == "drop":
        del coords[k]
    else:
        shift = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice(primes))
        coords[k] = coords.get(k, 0) + shift
    return LeibnizAlgebra(alg.field, alg.labels, products, check=False), pair


@pytest.mark.parametrize("build", [
    pytest.param(lambda: odd_family(241), id="odd_family(241)"),
    pytest.param(lambda: filiform(500), id="filiform(500)"),
])
def test_distinct_prime_denominators_match_dense_reference(build):
    # v_i -> v_i / p_i gives [v_i, v_j] coefficients c p_k / (p_i p_j), so
    # no two basis vectors share a denominator; a residual sums terms
    # whose denominators are products of distinct primes
    alg, split = build()
    n = alg.dim
    primes = _primes(n)
    scaled, _split = rescale_basis(alg, split,
                                   [Fraction(1, p) for p in primes])
    assert check_leibniz(scaled) == []
    rng = random.Random(n)
    broken = 0
    for _ in range(8):
        mutant, (a, b) = _mutate(scaled, rng, primes)
        tensor = [_TensorRow(mutant, i) for i in range(n)]
        # the unmutated table satisfies the identity, so a triple that does
        # not read [v_a, v_b] has a zero residual, and so has one whose
        # every term brackets a zero product
        want = []
        for j, k, i in _triples_reading(mutant.products, n, a, b):
            r = ref.residual(Q, tensor, i, j, k)
            if any(r):
                want.append((i, j, k, ref.values(r)))
        assert check_leibniz(mutant, stop_early=True) == want[:1]
        assert check_leibniz(mutant) == want
        broken += bool(want)
    assert broken


# -- basis-ideal listing against the 2^n brute force -----------------------

def _assert_listing_complete(alg):
    assert enumerate_basis_ideals(alg) == \
        ref.enumerate_basis_ideals(alg.field, ref.dense_tensor(alg))


@pytest.mark.parametrize("alg", [
    pytest.param(alg, id=f"{entry.name}{entry.params or ''}")
    for entry in standard_entries()
    for alg, _split in [entry.instantiate()]
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


# -- is_automorphism against the dense bracket -----------------------------

def _reference_automorphism(alg, columns):
    """(ok, witness) for the map v_j -> columns[j], from the dense
    reference: f([v_i, v_j]) against [f v_i, f v_j] on every basis pair
    in row-major order.  None when the columns are dependent."""
    field, n = alg.field, alg.dim
    images = [ref.scalars(field, col) for col in columns]
    if len(ref.rref(field, images, n)[1]) < n:
        return None
    tensor = ref.dense_tensor(alg)

    def apply(x):
        acc = ref.zero_vector(field, n)
        for xj, image in zip(x, images):
            if xj:
                acc = tuple(a + xj * b for a, b in zip(acc, image))
        return acc

    for i in range(n):
        for j in range(n):
            if apply(tensor[i][j]) != ref.product(field, tensor, images[i],
                                                  images[j]):
                return False, (i, j)
    return True, None


def _random_entry(field, rng):
    if field.is_rationals:
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    return rng.randrange(field.p)


def _nonzero_entry(field, rng):
    x = 0
    while not x:
        x = field.scalar(_random_entry(field, rng))
    return x


def _columns(f: LinearMap) -> list:
    return list(zip(*f.matrix))


def _compose(f: LinearMap, g: LinearMap) -> LinearMap:
    """The map f after g."""
    return LinearMap(f.field, mat_mul(f.field, f.matrix, g.matrix))


def _candidate_maps(alg, swap, rng):
    """(algebra, columns) pairs: identity maps, rescaled permutations,
    random maps, the automorphism ``swap`` conjugated into a random basis,
    one-entry mutants of the true automorphisms, and singular maps, the
    monomial ones included."""
    field, n = alg.field, alg.dim
    identity = LinearMap.identity(field, n)
    true_maps = [(alg, identity), (alg, swap)]
    out = list(true_maps)
    for _ in range(4):
        images = list(range(n))
        rng.shuffle(images)
        out.append((alg, LinearMap.from_columns(field, [
            tuple(_nonzero_entry(field, rng) if k == images[j] else field.zero
                  for k in range(n))
            for j in range(n)])))
    for _ in range(2):
        g = LinearMap.from_columns(field, [
            tuple(field.scalar(_random_entry(field, rng)) for _ in range(n))
            for _ in range(n)])
        if not g.is_invertible():
            continue
        out.append((alg, g))
        # swap is an automorphism of alg, so g^-1 swap g is one of alg
        # rewritten in the basis g(v_j)
        other = change_basis(alg, g)
        conjugated = _compose(g.inverse(), _compose(swap, g))
        true_maps.append((other, conjugated))
        out.append((other, conjugated))
    for algebra, f in true_maps:
        for _ in range(3):
            rows = [list(row) for row in f.matrix]
            a, b = rng.randrange(n), rng.randrange(n)
            rows[a][b] = field.add(rows[a][b], _nonzero_entry(field, rng))
            out.append((algebra, LinearMap(field, rows)))
    # one entry per row, but two rows share a column
    images = [rng.randrange(n - 1) for _ in range(n)]
    out.append((alg, LinearMap(field, [
        tuple(field.one if k == images[a] else field.zero for k in range(n))
        for a in range(n)])))
    out.append((alg, LinearMap(field, [[field.zero] * n] * n)))
    return [(algebra, _columns(f)) for algebra, f in out]


@pytest.mark.parametrize("field", [Q, F5, BIG], ids=str)
@pytest.mark.parametrize("build", [
    pytest.param(five_dim, id="five_dim"),
    pytest.param(ud_component, id="ud_component"),
    pytest.param(lambda field: filiform(4, field), id="filiform(4)"),
])
def test_automorphism_check_matches_dense_bracket(build, field):
    # two copies of one algebra, and the automorphism swapping them
    alg, _split = direct_sum(*build(field), *build(field))
    n, half = alg.dim, alg.dim // 2
    swap = LinearMap.permutation(field, [(j + half) % n for j in range(n)])
    rng = random.Random(f"{half}/{field}")
    verdicts = []
    for algebra, columns in _candidate_maps(alg, swap, rng):
        f = LinearMap.from_columns(field, columns)
        want = _reference_automorphism(algebra, columns)
        assert f.is_invertible() == (want is not None)
        if want is None:
            with pytest.raises(SingularMapError):
                is_automorphism(algebra, f)
        else:
            assert is_automorphism(algebra, f) == want
        verdicts.append(want and want[0])
    # true automorphisms past the monomial ones, refuted maps and
    # singular maps all occur
    assert verdicts.count(True) > 2
    assert False in verdicts and None in verdicts
