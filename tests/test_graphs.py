"""Associated digraph construction and the graph predicates."""

from __future__ import annotations

import random

import pytest

from leibniz_graphs import graphs
from leibniz_graphs.algebra import (
    BasisSplit,
    MultiplicativeTable,
    to_multiplicative,
)
from leibniz_graphs.corpus import (
    build_example,
    standard_entries,
    filiform,
    five_dim,
    fuzz_instances,
    odd_family,
    permute_basis,
    rescale_basis,
    ud_component,
)
from leibniz_graphs.errors import UnknownVertexError
from leibniz_graphs.graphs import (
    DiGraph,
    build_graph,
    edge_list_text,
    induced_subgraph,
    is_strongly_connected,
    is_weakly_symmetric,
    reachable_from,
    strong_components,
    to_dot,
    undirected_components,
)
from leibniz_graphs.scalars import FieldSpec

# e=0 h=1 f=2 p=3 q=4; factors point at products, duplicates collapse
FIVE_DIM_EDGES = {
    (0, 0), (0, 1), (0, 3), (1, 0), (1, 2), (1, 3), (1, 4),
    (2, 1), (2, 2), (2, 4), (3, 3), (3, 4), (4, 3), (4, 4),
}


def _graph_of(alg, split):
    return build_graph(to_multiplicative(alg, split), split)


def test_five_dim_edge_set_is_the_frozen_golden():
    alg, split = five_dim()
    graph = _graph_of(alg, split)
    assert graph.vertices == (0, 1, 2, 3, 4)
    assert graph.labels == ("e", "h", "f", "p", "q")
    assert set(graph.edges) == FIVE_DIM_EDGES
    assert len(graph.edges) == 14


def test_five_dim_subgraphs():
    alg, split = five_dim()
    graph = _graph_of(alg, split)
    kernel = induced_subgraph(graph, "kernel", split)
    assert kernel.vertices == (3, 4)
    assert kernel.labels == ("p", "q")
    assert set(kernel.edges) == {(3, 3), (3, 4), (4, 3), (4, 4)}
    comp = induced_subgraph(graph, "complement", split)
    assert comp.vertices == (0, 1, 2)
    assert set(comp.edges) == {(0, 0), (0, 1), (1, 0), (1, 2), (2, 1), (2, 2)}
    assert is_strongly_connected(kernel)
    assert is_strongly_connected(comp)
    with pytest.raises(ValueError):
        induced_subgraph(graph, "middle", split)


def test_model_filiform_graph_is_a_chain_plus_fanout():
    alg, split = filiform(4)
    graph = _graph_of(alg, split)
    assert set(graph.edges) == {(0, 1), (0, 2), (0, 3), (1, 2), (2, 3)}


def test_filiform_kernel_subgraph_breaks_weak_symmetry():
    alg, split = filiform(5)
    kernel = induced_subgraph(_graph_of(alg, split), "kernel", split)
    assert kernel.vertices == (1, 2, 3, 4)
    assert set(kernel.edges) == {(1, 2), (2, 3), (3, 4)}
    flag, witness = is_weakly_symmetric(kernel)
    assert not flag
    assert witness == (1, 2)  # first offending edge in sorted order
    assert kernel.label_of(1) == "e_2" and kernel.label_of(2) == "e_3"
    assert not is_strongly_connected(kernel)
    assert strong_components(kernel).count == 4


def test_reachability_in_filiform_kernel_part():
    alg, split = filiform(5)
    kernel = induced_subgraph(_graph_of(alg, split), "kernel", split)
    assert reachable_from(kernel, 1) == (1, 2, 3, 4)
    assert reachable_from(kernel, 3) == (3, 4)
    assert reachable_from(kernel, 4) == (4,)
    with pytest.raises(UnknownVertexError):
        reachable_from(kernel, 0)


def test_five_dim_strong_components_split_by_part():
    alg, split = five_dim()
    graph = _graph_of(alg, split)
    part = strong_components(graph)
    assert part.classes() == ((0, 1, 2), (3, 4))
    assert dict(part.assignment)[4] == 3
    assert not is_strongly_connected(graph)  # no edge back out of the kernel
    flag, witness = is_weakly_symmetric(graph)
    assert not flag and witness == (0, 3)


def test_undirected_components_of_a_direct_sum():
    alg, split = build_example("ud_plus_five")
    graph = _graph_of(alg, split)
    part = undirected_components(graph)
    assert part.count == 2
    assert part.classes() == ((0, 1, 2), (3, 4, 5, 6, 7))
    assert dict(part.assignment)[6] == 3


def test_strong_connectivity_conventions():
    empty = DiGraph((), (), frozenset())
    assert is_strongly_connected(empty)
    single = DiGraph((0,), ("a",), frozenset())
    assert is_strongly_connected(single)
    two = DiGraph((0, 1), ("a", "b"), frozenset())
    assert not is_strongly_connected(two)
    assert is_weakly_symmetric(two) == (True, None)  # vacuous: no edges


def test_built_graphs_equal_their_validated_copies():
    # build_graph and induced_subgraph skip the constructor's checks; what
    # they build must pass them and compare equal to the checked graph
    for entry in standard_entries():
        alg, split = entry.instantiate()
        graph = _graph_of(alg, split)
        for built in (graph, induced_subgraph(graph, "kernel", split),
                      induced_subgraph(graph, "complement", split)):
            checked = DiGraph(list(built.vertices), list(built.labels),
                              set(built.edges))
            assert checked == built, entry.name
            assert type(built.vertices) is tuple
            assert type(built.labels) is tuple
            assert type(built.edges) is frozenset
            assert [built.label_of(v) for v in built.vertices] == \
                list(built.labels)


def test_build_graph_rejects_an_entry_outside_the_table():
    # a table built by hand is not checked on construction; build_graph
    # still refuses a product that names no basis vector
    Q = FieldSpec.rationals()
    for entry in (((0, 1), (2, Q.one)), ((0, 2), (1, Q.one)),
                  ((-1, 0), (1, Q.one))):
        table = MultiplicativeTable(Q, ("a", "b"), (entry,))
        with pytest.raises(UnknownVertexError, match="leaves the graph"):
            build_graph(table, BasisSplit.of(2, ()))


def test_digraph_validation():
    with pytest.raises(ValueError):
        DiGraph((1, 0), ("a", "b"), frozenset())
    with pytest.raises(ValueError):
        DiGraph((0, 0), ("a", "b"), frozenset())
    with pytest.raises(ValueError):
        DiGraph((0, 1), ("a",), frozenset())
    with pytest.raises(UnknownVertexError):
        DiGraph((0, 1), ("a", "b"), frozenset({(0, 2)}))
    graph = DiGraph((0, 2), ("a", "b"), frozenset({(2, 0)}))
    assert graph.label_of(2) == "b"
    with pytest.raises(UnknownVertexError):
        graph.label_of(1)
    # vertices are basis indices: they index the derived arrays
    for bad in ((-1, 0), (0, "b"), (0, 1.0), (True,)):
        with pytest.raises(ValueError, match="non-negative basis indices"):
            DiGraph(bad, ("a",) * len(bad), frozenset())


def test_ud_component_graph_golden():
    alg, split = ud_component()
    graph = _graph_of(alg, split)
    assert set(graph.edges) == {(0, 1), (0, 2), (1, 2)}
    kernel = induced_subgraph(graph, "kernel", split)
    flag, witness = is_weakly_symmetric(kernel)
    assert not flag and witness == (1, 2)


def test_to_dot_is_byte_stable():
    alg, split = ud_component()
    graph = _graph_of(alg, split)
    dot = to_dot(graph, kernel_vertices=split.kernel)
    assert dot == (
        "digraph leibniz {\n"
        '  "u_d" [shape=ellipse];\n'
        '  "e_0" [shape=box];\n'
        '  "e_1" [shape=box];\n'
        '  "u_d" -> "e_0";\n'
        '  "u_d" -> "e_1";\n'
        '  "e_0" -> "e_1";\n'
        "}\n"
    )
    assert dot == to_dot(graph, kernel_vertices=split.kernel)


def test_edge_list_text_sorted_by_index():
    alg, split = ud_component()
    graph = _graph_of(alg, split)
    assert edge_list_text(graph) == "u_d -> e_0\nu_d -> e_1\ne_0 -> e_1\n"
    assert edge_list_text(DiGraph((), (), frozenset())) == ""


def test_graph_invariant_under_rescaling():
    rng = random.Random(4242)
    alg, split = five_dim()
    before = _graph_of(alg, split)
    for _ in range(20):
        diag = [rng.choice([1, 2, 3, -1, 5]) for _ in range(alg.dim)]
        scaled, s_split = rescale_basis(alg, split, diag)
        after = _graph_of(scaled, s_split)
        assert after.edges == before.edges
        assert after.labels == before.labels


def test_graph_equivariant_under_permutation():
    rng = random.Random(77)
    for name in ("five_dim", "filiform", "ud_component"):
        params = {"n": 5} if name == "filiform" else None
        alg, split = build_example(name, params)
        before = _graph_of(alg, split)
        for _ in range(10):
            order = list(range(alg.dim))
            rng.shuffle(order)
            perm, p_split, position = permute_basis(alg, split, order)
            after = _graph_of(perm, p_split)
            mapped = {(position[a], position[b]) for a, b in before.edges}
            assert set(after.edges) == mapped
            for v in before.vertices:
                assert after.label_of(position[v]) == before.label_of(v)


def test_no_edges_leave_the_kernel_part():
    # products out of kernel vectors stay in the kernel part, so the
    # graph can never cross back into the complement
    instances = fuzz_instances(seed=5, count=30)
    alg, split = build_example("ud_plus_five")
    instances.append((alg, split))
    for alg, split in instances:
        graph = _graph_of(alg, split)
        kernel = set(split.kernel)
        for a, b in graph.edges:
            if a in kernel:
                assert b in kernel


def _random_digraph(rng):
    n = rng.randint(1, 10)
    vertices = tuple(range(n))
    edges = set()
    for a in range(n):
        for b in range(n):
            if rng.random() < rng.choice([0.05, 0.15, 0.4]):
                edges.add((a, b))
    labels = tuple(f"v{i}" for i in vertices)
    return DiGraph(vertices, labels, frozenset(edges))


def test_strong_connectivity_decomposes_on_random_digraphs():
    # on any digraph: strongly connected iff connected and weakly symmetric
    rng = random.Random(31337)
    for _ in range(300):
        graph = _random_digraph(rng)
        strong = is_strongly_connected(graph)
        connected = undirected_components(graph).count <= 1
        symmetric, _w = is_weakly_symmetric(graph)
        assert strong == (connected and symmetric)


def test_strong_components_match_pairwise_reachability():
    rng = random.Random(2718)
    for _ in range(120):
        graph = _random_digraph(rng)
        ids = dict(strong_components(graph).assignment)
        reach = {v: set(reachable_from(graph, v)) for v in graph.vertices}
        for a in graph.vertices:
            for b in graph.vertices:
                same = ids[a] == ids[b]
                mutual = b in reach[a] and a in reach[b]
                assert same == mutual


def _observations(graph, kernel=()) -> tuple:
    """Everything the predicates and emitters say about a graph."""
    return (
        graph.edge_labels(),
        strong_components(graph),
        undirected_components(graph),
        is_strongly_connected(graph),
        is_weakly_symmetric(graph),
        tuple(reachable_from(graph, v) for v in graph.vertices),
        to_dot(graph, kernel_vertices=kernel),
        edge_list_text(graph),
    )


def test_strong_components_are_computed_once_per_graph(monkeypatch):
    calls = []
    real = graphs._tarjan

    def counting(graph):
        calls.append(graph)
        return real(graph)

    monkeypatch.setattr(graphs, "_tarjan", counting)
    alg, split = five_dim()
    graph = _graph_of(alg, split)
    first = strong_components(graph)
    assert is_weakly_symmetric(graph) == (False, (0, 3))
    assert not is_strongly_connected(graph)
    assert strong_components(graph) is first
    assert len(calls) == 1
    # an equal graph is a different object with its own caches
    again = _graph_of(alg, split)
    assert again == graph
    assert strong_components(again) == first
    assert len(calls) == 2


def test_equality_and_hash_ignore_filled_caches():
    alg, split = five_dim()
    warm = _graph_of(alg, split)
    fresh = _graph_of(alg, split)
    hashed = hash(warm)
    _observations(warm, split.kernel)
    assert hash(warm) == hashed == hash(fresh)
    assert warm == fresh and fresh == warm
    assert len({warm, fresh}) == 1
    other = DiGraph(warm.vertices, warm.labels, warm.edges - {(0, 0)})
    _observations(other)
    assert other != warm


def test_subgraph_of_a_warm_graph_equals_one_built_fresh():
    for entry in standard_entries():
        alg, split = entry.instantiate()
        warm = _graph_of(alg, split)
        _observations(warm, split.kernel)
        for part in ("kernel", "complement"):
            from_warm = induced_subgraph(warm, part, split)
            fresh = induced_subgraph(_graph_of(alg, split), part, split)
            assert from_warm == fresh
            assert (_observations(from_warm, split.kernel)
                    == _observations(fresh, split.kernel))


def test_induced_subgraphs_with_gaps_and_the_empty_part():
    # the kernel part {1, 3, 4, 7} leaves the gap indices 0, 2, 5 and 6
    # below its top vertex; the complement part {0, 2, 5, 6, 8} has its own
    edges = {(0, 1), (1, 3), (3, 1), (3, 4), (4, 7), (7, 7), (2, 4),
             (5, 6), (6, 8), (8, 0), (8, 5)}
    graph = DiGraph(tuple(range(9)), tuple(f"v{i}" for i in range(9)),
                    frozenset(edges))
    split = BasisSplit.of(9, (1, 3, 4, 7))
    kernel = induced_subgraph(graph, "kernel", split)
    assert kernel.vertices == (1, 3, 4, 7)
    assert kernel.labels == ("v1", "v3", "v4", "v7")
    assert kernel.edges == {(1, 3), (3, 1), (3, 4), (4, 7), (7, 7)}
    assert kernel == DiGraph(kernel.vertices, kernel.labels, kernel.edges)
    assert kernel.edge_labels() == [["v1", "v3"], ["v3", "v1"], ["v3", "v4"],
                                    ["v4", "v7"], ["v7", "v7"]]
    strong = strong_components(kernel)
    assert strong.assignment == ((1, 1), (3, 1), (4, 4), (7, 7))
    assert undirected_components(kernel).assignment == (
        (1, 1), (3, 1), (4, 1), (7, 1))
    assert is_weakly_symmetric(kernel) == (False, (3, 4))
    assert reachable_from(kernel, 3) == (1, 3, 4, 7)
    assert reachable_from(kernel, 4) == (4, 7)
    # one mask per index up to the top vertex, 0 at every gap
    assert graphs._reach_masks(kernel) == [
        0, 0b10011010, 0, 0b10011010, 0b10010000, 0, 0, 0b10000000]
    for v in (0, 2, 5, 6, -1, kernel.vertices[-1] + 1):
        with pytest.raises(UnknownVertexError, match=f"vertex {v} not in"):
            reachable_from(kernel, v)
    assert edge_list_text(kernel) == (
        "v1 -> v3\nv3 -> v1\nv3 -> v4\nv4 -> v7\nv7 -> v7\n")

    complement = induced_subgraph(graph, "complement", split)
    assert complement.vertices == (0, 2, 5, 6, 8)
    assert complement.edges == {(5, 6), (6, 8), (8, 0), (8, 5)}
    assert strong_components(complement).classes() == ((0,), (2,), (5, 6, 8))
    assert undirected_components(complement).classes() == ((0, 5, 6, 8),
                                                           (2,))
    assert reachable_from(complement, 5) == (0, 5, 6, 8)
    for v in (1, 3, 4, 7, -1, 9):
        with pytest.raises(UnknownVertexError):
            reachable_from(complement, v)

    empty = induced_subgraph(graph, "kernel", BasisSplit.of(9, ()))
    assert empty == DiGraph((), (), frozenset())
    assert strong_components(empty).assignment == ()
    assert undirected_components(empty).count == 0
    assert is_strongly_connected(empty)
    assert is_weakly_symmetric(empty) == (True, None)
    assert graphs._reach_masks(empty) == []
    assert to_dot(empty) == "digraph leibniz {\n}\n"
    assert edge_list_text(empty) == "" and empty.edge_labels() == []
    for v in (0, -1):
        with pytest.raises(UnknownVertexError):
            reachable_from(empty, v)


def test_strong_groups_come_in_reverse_topological_order():
    # every edge between two groups leads to a group completed earlier
    rng = random.Random(1618)
    for _ in range(200):
        graph = _random_digraph(rng)
        partition, groups = graph._strong
        ids = dict(partition.assignment)
        assert partition is strong_components(graph)
        assert sorted(v for group in groups for v in group) == list(
            graph.vertices)
        position = {v: t for t, group in enumerate(groups) for v in group}
        for a, b in graph.edges:
            assert position[b] <= position[a]
            assert (position[a] == position[b]) == (ids[a] == ids[b])


def _permuted_parts(build, n, seed):
    alg, split = build(n)
    order = list(range(n))
    random.Random(seed).shuffle(order)
    perm, p_split, _position = permute_basis(alg, split, order)
    graph = build_graph(to_multiplicative(perm, p_split, validate=False),
                        p_split)
    return [induced_subgraph(graph, part, p_split)
            for part in ("kernel", "complement")]


@pytest.mark.parametrize("build, n", ((odd_family, 241), (filiform, 500)))
def test_reach_masks_match_reachable_from_on_permuted_families(build, n):
    for part in _permuted_parts(build, n, seed=n):
        reach = graphs._reach_masks(part)
        assert len(reach) == part.vertices[-1] + 1
        members = set(part.vertices)
        for v in range(len(reach)):
            if v in members:
                assert reach[v] == sum(1 << w for w in
                                       reachable_from(part, v)), v
            else:
                assert reach[v] == 0, v
