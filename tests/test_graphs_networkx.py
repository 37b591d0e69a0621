"""The graph predicates against networkx, an implementation that shares no
code with the package.

The package's predicates all read the successor lists and the strong
components a DiGraph caches, so checking one predicate against another
(SCCs against pairwise reachability, say) no longer compares independent
routes.  Here each one is compared with networkx instead, on random
digraphs, on every corpus graph with its part subgraphs, and on a
permuted odd_family(1201) table; the reach masks behind cross_validate
are compared with ``nx.descendants`` wherever reachability is.  Random
digraphs on vertex sets with gaps, and their induced subgraphs, exercise
the vertex-indexed arrays at indices that are not vertices.  The
networkx graphs of algebras are built straight from the products, not
from ``build_graph``.
"""

from __future__ import annotations

import random

import networkx as nx
import pytest

from leibniz_graphs import graphs
from leibniz_graphs.algebra import (BasisSplit, MultiplicativeTable,
                                    to_multiplicative)
from leibniz_graphs.corpus import odd_family, permute_basis, standard_entries
from leibniz_graphs.graphs import (
    DiGraph,
    build_graph,
    induced_subgraph,
    is_strongly_connected,
    is_weakly_symmetric,
    reachable_from,
    strong_components,
    undirected_components,
)
from leibniz_graphs.scalars import FieldSpec

from test_graphs import _random_digraph

Q = FieldSpec.rationals()


def _nx_graph(vertices, edges) -> nx.DiGraph:
    g = nx.DiGraph()
    g.add_nodes_from(vertices)
    g.add_edges_from(edges)
    return g


def _nx_product_graph(triples, n: int) -> nx.DiGraph:
    """The digraph of (i, j, k) products: both factors point at k."""
    edges = [(f, k) for i, j, k in triples for f in (i, j)]
    return _nx_graph(range(n), edges)


def _classes(sets) -> list:
    return sorted(tuple(sorted(c)) for c in sets)


def assert_matches_networkx(graph: DiGraph, ref: nx.DiGraph,
                            reach_from=None) -> None:
    """Every predicate of ``graph`` agrees with networkx on ``ref``;
    reachability is checked from ``reach_from`` (default: every vertex)."""
    assert set(graph.vertices) == set(ref.nodes)
    assert set(graph.edges) == set(ref.edges)

    strong = strong_components(graph)
    assert list(strong.classes()) == _classes(
        nx.strongly_connected_components(ref))
    for cls in strong.classes():
        assert all(dict(strong.assignment)[v] == cls[0] for v in cls)
    assert list(undirected_components(graph).classes()) == _classes(
        nx.weakly_connected_components(ref))

    # networkx calls the graph with no vertices pointless; the package
    # counts it (and every one-vertex graph) as strongly connected
    expected = graph.n == 0 or nx.is_strongly_connected(ref)
    assert is_strongly_connected(graph) == expected

    scc_of = nx.condensation(ref).graph["mapping"]
    crossing = sorted((a, b) for a, b in ref.edges
                      if scc_of[a] != scc_of[b])
    witness = crossing[0] if crossing else None
    assert is_weakly_symmetric(graph) == (not crossing, witness)

    reach = graphs._reach_masks(graph)
    assert len(reach) == (graph.vertices[-1] + 1 if graph.vertices else 0)
    for v in graph.vertices if reach_from is None else reach_from:
        members = nx.descendants(ref, v) | {v}
        assert reachable_from(graph, v) == tuple(sorted(members))
        assert reach[v] == sum(1 << w for w in members)


def test_random_digraphs_match_networkx():
    # the random digraphs of test_graphs, under both of its seeds
    for seed, count in ((31337, 300), (2718, 120)):
        rng = random.Random(seed)
        for _ in range(count):
            graph = _random_digraph(rng)
            assert_matches_networkx(graph,
                                    _nx_graph(graph.vertices, graph.edges))


def _random_gapped_digraph(rng) -> DiGraph:
    """A random digraph on a random subset of range(top): the indices
    between its vertices are gaps."""
    top = rng.randint(1, 16)
    vertices = tuple(sorted(rng.sample(range(top), rng.randint(0, top))))
    density = rng.choice([0.05, 0.15, 0.4])
    edges = frozenset((a, b) for a in vertices for b in vertices
                      if rng.random() < density)
    return DiGraph(vertices, tuple(f"v{v}" for v in vertices), edges)


def test_random_gapped_digraphs_and_their_subgraphs_match_networkx():
    rng = random.Random(8128)
    for _ in range(300):
        graph = _random_gapped_digraph(rng)
        ref = _nx_graph(graph.vertices, graph.edges)
        assert_matches_networkx(graph, ref)
        dim = graph.vertices[-1] + 1 if graph.vertices else 0
        split = BasisSplit.of(dim, (v for v in range(dim)
                                    if rng.random() < 0.5))
        for part, members in (("kernel", split.kernel),
                              ("complement", split.complement)):
            # networkx ignores the members that are not vertices
            assert_matches_networkx(induced_subgraph(graph, part, split),
                                    ref.subgraph(members))


def _triples(algebra) -> list:
    return [(i, j, k) for (i, j), coords in algebra.products.items()
            for k in coords]


def _corpus_instances():
    rng = random.Random(404)
    for entry in standard_entries():
        algebra, split = entry.instantiate()
        yield entry.name, algebra, split
        order = list(range(algebra.dim))
        rng.shuffle(order)
        permuted, p_split, _position = permute_basis(algebra, split, order)
        yield f"{entry.name} permuted", permuted, p_split


CORPUS = list(_corpus_instances())


@pytest.mark.parametrize("name,algebra,split", CORPUS,
                         ids=[name for name, _a, _s in CORPUS])
def test_corpus_graphs_and_part_subgraphs_match_networkx(name, algebra,
                                                         split):
    ref = _nx_product_graph(_triples(algebra), algebra.dim)
    graph = build_graph(to_multiplicative(algebra, split), split)
    assert_matches_networkx(graph, ref)
    for part, members in (("kernel", split.kernel),
                          ("complement", split.complement)):
        assert_matches_networkx(induced_subgraph(graph, part, split),
                                ref.subgraph(members))


def _odd_family_triples(n: int) -> tuple:
    """odd_family(n) in closed form: labels and (i, j, k, coefficient)."""
    m = n - 4
    labels = ("e", "f", "h") + tuple(f"x_{k}" for k in range(m + 1))
    e, f, h, x = 0, 1, 2, 3
    triples = [(e, f, h, 1), (f, e, h, -1), (e, h, e, 2), (h, e, e, -2),
               (h, f, f, 2), (f, h, f, -2)]
    triples += [(x + k, e, x + k - 1, k * (k + 3 - n))
                for k in range(1, m + 1)]
    triples += [(x + k, h, x + k, n - 4 - 2 * k) for k in range(m + 1)]
    triples += [(x + k, f, x + k + 1, 1) for k in range(m)]
    return labels, triples


def _odd_family_table(n: int, order: list):
    """The table and split of odd_family(n) with new vertex t being old
    vertex order[t], built without the identity check, which is far
    slower than the graph at this size."""
    labels, triples = _odd_family_triples(n)
    position = {old: new for new, old in enumerate(order)}
    moved = [(position[i], position[j], position[k], c)
             for i, j, k, c in triples]
    entries = tuple(sorted(((i, j), (k, Q.scalar(c)))
                           for i, j, k, c in moved))
    table = MultiplicativeTable(Q, tuple(labels[o] for o in order), entries)
    split = BasisSplit.of(n, (position[v] for v in range(3, n)))
    return table, split, [(i, j, k) for i, j, k, _c in moved]


def test_odd_family_closed_form_is_the_builder():
    for n in (9, 15):
        table, split, _triples = _odd_family_table(n, list(range(n)))
        algebra, built_split = odd_family(n)
        assert (table, split) == (to_multiplicative(algebra, built_split),
                                  built_split)


def test_permuted_odd_family_1201_matches_networkx():
    n = 1201
    rng = random.Random(1201)
    order = list(range(n))
    rng.shuffle(order)
    table, split, triples = _odd_family_table(n, order)
    ref = _nx_product_graph(triples, n)
    graph = build_graph(table, split)
    sample = rng.sample(range(n), 25)
    assert_matches_networkx(graph, ref, reach_from=sample)
    assert strong_components(graph).count == 2
    for part, members in (("kernel", split.kernel),
                          ("complement", split.complement)):
        sub = induced_subgraph(graph, part, split)
        assert is_strongly_connected(sub)
        assert_matches_networkx(sub, ref.subgraph(members),
                                reach_from=set(sample) & set(members))
