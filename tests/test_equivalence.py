"""Automorphism checking, change of basis, and transported graph facts."""

from __future__ import annotations

import itertools
from fractions import Fraction

import pytest

from leibniz_graphs.algebra import (
    BasisSplit,
    leibniz_kernel,
    to_multiplicative,
    validate_split,
)
from leibniz_graphs.corpus import (
    build_example,
    five_dim,
    fuzz_instances,
    permute_basis,
)
from leibniz_graphs.equivalence import (
    LinearMap,
    change_basis,
    decomposition_equivalence,
    induced_graph_isomorphism,
    is_automorphism,
    maps_basis_to_basis,
)
from leibniz_graphs.errors import (
    BadBijectionError,
    DimensionMismatchError,
    FieldMismatchError,
    SingularMapError,
)
from leibniz_graphs.graphs import build_graph, induced_subgraph
from leibniz_graphs.scalars import FieldSpec, unit_vector
from leibniz_graphs.structure import decompose
from vectors import mat_mul

Q = FieldSpec.rationals()


def _q(x):
    return Q.scalar(Fraction(x))


def _vec(*coords):
    return tuple(_q(c) for c in coords)


def _graph_of(alg, split):
    return build_graph(to_multiplicative(alg, split, validate=False), split)


# columns: e+f, e-f, h, p+q, p-q in the coordinates (e, h, f, p, q)
ALT_BASIS = LinearMap.from_columns(Q, [
    _vec(1, 0, 1, 0, 0),
    _vec(1, 0, -1, 0, 0),
    _vec(0, 1, 0, 0, 0),
    _vec(0, 0, 0, 1, 1),
    _vec(0, 0, 0, 1, -1),
])
ALT_LABELS = ("e+f", "e-f", "h", "p+q", "p-q")


def test_identity_and_permutation_maps():
    ident = LinearMap.identity(Q, 5)
    alg, _ = five_dim()
    assert is_automorphism(alg, ident) == (True, None)
    assert maps_basis_to_basis(ident, alg.labels) == {i: i for i in range(5)}
    perm = LinearMap.permutation(Q, [1, 0, 2, 3, 4])
    assert maps_basis_to_basis(perm, alg.labels) == {0: 1, 1: 0, 2: 2,
                                                     3: 3, 4: 4}
    with pytest.raises(BadBijectionError):
        LinearMap.permutation(Q, [0, 0, 1])


def test_linear_map_validation_and_inverse():
    with pytest.raises(DimensionMismatchError):
        LinearMap(Q, ((_q(1),), (_q(0), _q(1))))
    with pytest.raises(FieldMismatchError):
        LinearMap(Q, ((FieldSpec.prime(5).scalar(1),),))
    with pytest.raises(SingularMapError):
        LinearMap(Q, ((_q(0), _q(0)), (_q(0), _q(0)))).inverse()
    inv = ALT_BASIS.inverse()
    ident = LinearMap.identity(Q, 5)
    assert LinearMap(Q, mat_mul(Q, inv.matrix, ALT_BASIS.matrix)) == ident
    assert ALT_BASIS.is_invertible()


def test_swapping_e_and_f_is_not_an_automorphism():
    alg, _ = five_dim()
    swap = LinearMap.permutation(Q, [2, 1, 0, 3, 4])
    ok, witness = is_automorphism(alg, swap)
    assert not ok
    assert witness == (0, 1)  # [f,h] = -2f but the image of [e,h] is +2f


def test_diagonal_automorphism_with_scalar_slack():
    # e -> 4e, f -> f/4, h -> h forces p -> 2p, q -> q/2 on the kernel
    alg, _ = five_dim()
    f = LinearMap.from_columns(Q, [
        _vec(4, 0, 0, 0, 0),
        _vec(0, 1, 0, 0, 0),
        _vec(0, 0, "1/4", 0, 0),
        _vec(0, 0, 0, 2, 0),
        _vec(0, 0, 0, 0, "1/2"),
    ])
    assert is_automorphism(alg, f) == (True, None)
    # scaled columns are not unit vectors, so no vertex bijection
    assert maps_basis_to_basis(f, alg.labels) is None


def test_singular_candidate_raises():
    alg, _ = five_dim()
    rows = tuple((alg.field.zero,) * 5 for _ in range(5))
    with pytest.raises(SingularMapError):
        is_automorphism(alg, LinearMap(Q, rows))
    with pytest.raises(DimensionMismatchError):
        is_automorphism(alg, LinearMap.identity(Q, 4))


def test_change_basis_to_the_alternate_basis():
    alg, split = five_dim()
    alt = change_basis(alg, ALT_BASIS, new_labels=ALT_LABELS)
    assert alt.labels == ALT_LABELS
    assert alt.identity_verified

    kernel = leibniz_kernel(alt)
    assert kernel.basis_members() == (3, 4)  # p+q and p-q span the kernel
    alt_split = BasisSplit.of(5, (3, 4))
    assert validate_split(alt, alt_split)

    table = to_multiplicative(alt, alt_split)
    got = dict(table.entries)
    want = {
        (0, 1): (2, -2), (1, 0): (2, 2),
        (0, 2): (1, 2), (2, 0): (1, -2),
        (1, 2): (0, 2), (2, 1): (0, -2),
        (3, 2): (4, 1), (3, 0): (4, -1), (3, 1): (3, -1),
        (4, 0): (3, 1), (4, 1): (4, 1), (4, 2): (3, 1),
    }
    assert got == {k: (t, _q(c)) for k, (t, c) in want.items()}
    assert len(table.entries) == 12


def test_alternate_basis_graph_differs_but_minimality_survives():
    alg, split = five_dim()
    alt = change_basis(alg, ALT_BASIS, new_labels=ALT_LABELS)
    alt_split = BasisSplit.of(5, (3, 4))
    graph = _graph_of(alg, split)
    alt_graph = _graph_of(alt, alt_split)
    assert len(graph.edges) == 14
    assert len(alt_graph.edges) == 16
    identity_bij = {i: i for i in range(5)}
    assert not induced_graph_isomorphism(graph, alt_graph, identity_bij)
    # the graph is basis-dependent, but both bases certify minimality
    for g, s in ((graph, split), (alt_graph, alt_split)):
        for part in ("kernel", "complement"):
            sub = induced_subgraph(g, part, s)
            from leibniz_graphs.graphs import is_strongly_connected
            assert is_strongly_connected(sub)


def test_change_basis_by_permutation_matches_permute_basis():
    alg, split = five_dim()
    order = [2, 0, 1, 4, 3]  # new vector t is old vector order[t]
    perm_alg, perm_split, position = permute_basis(alg, split, order)
    f = LinearMap.from_columns(
        Q, [unit_vector(Q, 5, order[t]) for t in range(5)]
    )
    rebased = change_basis(alg, f, new_labels=perm_alg.labels)
    assert rebased == perm_alg
    assert position == {old: new for new, old in enumerate(order)}
    assert perm_split.kernel == (3, 4)


def test_change_basis_rejects_singular_matrix():
    alg, _ = five_dim()
    rows = tuple((alg.field.zero,) * 5 for _ in range(5))
    with pytest.raises(SingularMapError):
        change_basis(alg, LinearMap(Q, rows))


def test_copy_swap_transports_graph_and_decomposition():
    alg, split = build_example("five_doubled")
    images = [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]
    swap = LinearMap.permutation(Q, images)
    assert is_automorphism(alg, swap) == (True, None)
    bijection = maps_basis_to_basis(swap, alg.labels)
    assert bijection == {j: images[j] for j in range(10)}

    graph = _graph_of(alg, split)
    assert induced_graph_isomorphism(graph, graph, bijection)
    table = to_multiplicative(alg, split)
    dec = decompose(alg, table, split)
    assert decomposition_equivalence(dec, dec, bijection)
    # automorphisms preserve the kernel ideal, hence the kernel vertices
    kernel = set(split.kernel)
    assert {bijection[v] for v in kernel} == kernel


def test_part_mixing_bijection_fails_decomposition_equivalence():
    alg, split = build_example("ud_plus_five")
    table = to_multiplicative(alg, split)
    dec = decompose(alg, table, split)
    mixing = {i: i for i in range(8)}
    mixing[0], mixing[3] = 3, 0
    assert not decomposition_equivalence(dec, dec, mixing)
    identity = {i: i for i in range(8)}
    assert decomposition_equivalence(dec, dec, identity)


def test_bad_bijections_are_rejected():
    alg, split = five_dim()
    graph = _graph_of(alg, split)
    with pytest.raises(BadBijectionError):
        induced_graph_isomorphism(graph, graph, {0: 0})
    with pytest.raises(BadBijectionError):
        induced_graph_isomorphism(
            graph, graph, {0: 0, 1: 0, 2: 2, 3: 3, 4: 4}
        )
    with pytest.raises(BadBijectionError):
        induced_graph_isomorphism(
            graph, graph, {0: 0, 1: 1, 2: 2, 3: 3, 4: 9}
        )


def test_permutation_automorphisms_transport_the_graph():
    # brute-force the permutation automorphisms of small fuzz instances
    # and check every one of them induces a graph isomorphism that
    # preserves the kernel part
    instances = [
        inst for inst in fuzz_instances(seed=11, count=12, transforms=False)
        if inst[0].dim <= 3
    ]
    assert instances
    found = 0
    for alg, split in instances:
        graph = _graph_of(alg, split)
        kernel = set(split.kernel)
        n = alg.dim
        for images in itertools.permutations(range(n)):
            f = LinearMap.permutation(alg.field, images)
            ok, _w = is_automorphism(alg, f)
            if not ok:
                continue
            found += 1
            bijection = maps_basis_to_basis(f, alg.labels)
            assert bijection is not None
            assert induced_graph_isomorphism(graph, graph, bijection)
            assert {bijection[v] for v in kernel} == kernel
    assert found >= len(instances)  # identity always counts
