"""Acceptance gate: ten headline guarantees, one pass/fail line each.

Each test prints a single "criterion NN PASS/FAIL" line (visible with
pytest -s; the -v test names carry the same information) and enforces the
advertised time budget where one exists.
"""

from __future__ import annotations

import random
import time
from fractions import Fraction

from leibniz_graphs.algebra import (
    BasisSplit,
    check_leibniz,
    to_multiplicative,
    validate_split,
)
from leibniz_graphs.corpus import (
    build_example,
    filiform,
    fuzz_instances,
    odd_family,
    rescale_basis,
    standard_entries,
)
from leibniz_graphs.equivalence import (
    LinearMap,
    change_basis,
    decomposition_equivalence,
    induced_graph_isomorphism,
    is_automorphism,
    maps_basis_to_basis,
)
from leibniz_graphs.graphs import (
    DiGraph,
    build_graph,
    induced_subgraph,
    is_strongly_connected,
    is_weakly_symmetric,
    reachable_from,
    to_dot,
    undirected_components,
)
from leibniz_graphs.scalars import FieldSpec, unit_vector
from leibniz_graphs.structure import (
    check_minimality,
    check_weak_division,
    decompose,
    generated_ideal,
    restrict_to_indices,
)
from leibniz_graphs.algebra import product as bracket
from vectors import vec_is_zero

Q = FieldSpec.rationals()


def _report(num: int, description: str, body) -> None:
    try:
        body()
    except BaseException:
        print(f"criterion {num:02d} FAIL: {description}")
        raise
    print(f"criterion {num:02d} PASS: {description}")


def _table_graph(alg, split):
    table = to_multiplicative(alg, split, validate=False)
    return table, build_graph(table, split)


def _label_edges(graph):
    return {(graph.label_of(a), graph.label_of(b)) for a, b in graph.edges}


def test_criterion_01_five_dim_graph_is_the_frozen_edge_set():
    def body():
        start = time.perf_counter()
        alg, split = build_example("five_dim")
        _table, graph = _table_graph(alg, split)
        want = (
            {("e", "p"), ("h", "p"), ("h", "q"), ("f", "q")}
            | {("p", "p"), ("p", "q"), ("q", "p"), ("q", "q")}
            | {("e", "e"), ("e", "h"), ("h", "f"), ("f", "f"),
               ("h", "e"), ("f", "h")}
        )
        assert _label_edges(graph) == want
        assert len(graph.edges) == 14
        assert time.perf_counter() - start < 1.0

    _report(1, "5-dim algebra yields exactly the frozen 14-edge set", body)


def test_criterion_02_alternate_basis_products_and_edge_count():
    def body():
        start = time.perf_counter()
        alg, _split = build_example("five_dim")
        f = LinearMap.from_columns(Q, [
            tuple(Q.scalar(c) for c in col) for col in (
                (1, 0, 1, 0, 0),   # e+f
                (1, 0, -1, 0, 0),  # e-f
                (0, 1, 0, 0, 0),   # h
                (0, 0, 0, 1, 1),   # p+q
                (0, 0, 0, 1, -1),  # p-q
            )
        ])
        labels = ("e+f", "e-f", "h", "p+q", "p-q")
        alt = change_basis(alg, f, new_labels=labels)
        alt_split = BasisSplit.of(5, (3, 4))
        assert validate_split(alt, alt_split)
        table, alt_graph = _table_graph(alt, alt_split)

        def entry(left, right):
            k, c = table.get(labels.index(left), labels.index(right))
            return labels[k], c

        two, one = Q.scalar(2), Q.scalar(1)
        # the five product families of the rewritten algebra
        assert entry("e-f", "e+f") == ("h", two)
        assert entry("e+f", "e-f") == ("h", -two)
        assert entry("e+f", "h") == ("e-f", two)
        assert entry("h", "e+f") == ("e-f", -two)
        assert entry("e-f", "h") == ("e+f", two)
        assert entry("h", "e-f") == ("e+f", -two)
        assert entry("p+q", "h") == ("p-q", one)
        assert entry("p+q", "e+f") == ("p-q", -one)
        assert entry("p-q", "e-f") == ("p-q", one)
        assert entry("p-q", "e+f") == ("p+q", one)
        assert entry("p-q", "h") == ("p+q", one)
        assert entry("p+q", "e-f") == ("p+q", -one)
        assert len(table.entries) == 12

        _t, graph = _table_graph(*build_example("five_dim"))
        assert len(alt_graph.edges) == 16 and len(graph.edges) == 14
        # different edge counts certify non-isomorphism outright
        assert not induced_graph_isomorphism(
            graph, alt_graph, {i: i for i in range(5)}
        )
        assert time.perf_counter() - start < 1.0

    _report(2, "alternate basis reproduces all product families; its "
               "16-edge graph is not isomorphic to the 14-edge one", body)


def test_criterion_03_odd_family_minimal_by_all_routes():
    def body():
        start = time.perf_counter()
        for n in (5, 7, 9):
            alg, split = odd_family(n)
            table, _graph = _table_graph(alg, split)
            verdict = check_minimality(alg, table, split, oracle=True)
            assert verdict.minimal
            assert verdict.via_graph
            assert verdict.via_division
            assert verdict.oracle_minimal is True
        assert time.perf_counter() - start < 5.0

    _report(3, "odd family n=5,7,9 minimal by both graph routes and the "
               "subset-enumeration oracle", body)


def test_criterion_04_filiform_not_minimal_with_witness():
    def body():
        start = time.perf_counter()
        for n in range(3, 9):
            alg, split = filiform(n)
            table, graph = _table_graph(alg, split)
            verdict = check_minimality(alg, table, split, oracle=True)
            assert not verdict.minimal
            assert not verdict.via_graph
            assert not verdict.via_division
            assert verdict.oracle_minimal is False
            holds, violations = check_weak_division(alg, table, split)
            assert not holds
            # first witness is always the product [e_2, e_1] = e_3
            (i, j), k, member = violations[0]
            assert (alg.labels[i], alg.labels[j]) == ("e_2", "e_1")
            assert alg.labels[k] == "e_3" and alg.labels[member] == "e_2"
            kernel_graph = induced_subgraph(graph, "kernel", split)
            assert undirected_components(kernel_graph).count == 1
            assert not is_weakly_symmetric(kernel_graph)[0]
        assert time.perf_counter() - start < 5.0

    _report(4, "filiform n=3..8 not minimal on every route; weak division "
               "fails first at [e_2,e_1] = e_3; kernel subgraph connected "
               "but not weakly symmetric", body)


def _corpus_and_fuzz(count):
    instances = [entry.instantiate() for entry in standard_entries()]
    instances += fuzz_instances(seed=1201, count=count)
    return instances


def test_criterion_05_reachability_equals_ideal_closure():
    def body():
        instances = _corpus_and_fuzz(200)
        assert len(instances) == 7 + 200
        mismatches = 0
        pairs = 0
        for alg, split in instances:
            _table, graph = _table_graph(alg, split)
            for part in ("kernel", "complement"):
                sub = induced_subgraph(graph, part, split)
                for v in sub.vertices:
                    members = set(reachable_from(sub, v))
                    ideal = generated_ideal(
                        alg, unit_vector(alg.field, alg.dim, v))
                    for w in sub.vertices:
                        pairs += 1
                        in_graph = w in members
                        in_ideal = ideal.contains(
                            unit_vector(alg.field, alg.dim, w))
                        mismatches += in_graph != in_ideal
        assert mismatches == 0 and pairs > 0

    _report(5, "same-part reachability equals ideal-closure membership on "
               "the corpus plus 200 fuzz variants, 0 mismatches", body)


def test_criterion_06_weak_division_equals_weak_symmetry():
    def body():
        instances = _corpus_and_fuzz(500)
        assert len(instances) >= 507
        mismatches = 0
        for alg, split in instances:
            table, graph = _table_graph(alg, split)
            holds, _v = check_weak_division(alg, table, split)
            sym_k, _w = is_weakly_symmetric(
                induced_subgraph(graph, "kernel", split)
            )
            sym_j, _w = is_weakly_symmetric(
                induced_subgraph(graph, "complement", split)
            )
            mismatches += holds != (sym_k and sym_j)
        assert mismatches == 0

    _report(6, "weak division equals weak symmetry of both part subgraphs "
               "on the corpus plus 500 fuzz algebras, 0 mismatches", body)


def test_criterion_07_strong_connectivity_decomposition_remark():
    def body():
        start = time.perf_counter()
        rng = random.Random(90210)
        mismatches = 0
        for _ in range(1000):
            n = rng.randint(1, 10)
            density = rng.choice([0.05, 0.15, 0.35])
            edges = frozenset(
                (a, b)
                for a in range(n) for b in range(n)
                if rng.random() < density
            )
            graph = DiGraph(
                tuple(range(n)),
                tuple(f"v{i}" for i in range(n)),
                edges,
            )
            strong = is_strongly_connected(graph)
            connected = undirected_components(graph).count <= 1
            symmetric, _w = is_weakly_symmetric(graph)
            mismatches += strong != (connected and symmetric)
        assert mismatches == 0
        assert time.perf_counter() - start < 2.0

    _report(7, "strongly connected equals connected plus weakly symmetric "
               "on 1000 random digraphs, 0 mismatches", body)


def test_criterion_08_direct_sum_decomposition():
    def body():
        alg, split = build_example("ud_plus_five")
        assert alg.dim == 8
        table, graph = _table_graph(alg, split)
        dec = decompose(alg, table, split, graph)
        assert dec.count == 2
        assert [part.dim for part in dec.parts] == [3, 5]
        # exhaustive cross-part orthogonality, checked here independently
        first, second = dec.parts
        unit = [unit_vector(alg.field, alg.dim, v) for v in range(alg.dim)]
        for i in first.vertices:
            for j in second.vertices:
                assert vec_is_zero(bracket(alg, unit[i], unit[j]))
                assert vec_is_zero(bracket(alg, unit[j], unit[i]))
        # each part re-validates as a Leibniz algebra with a
        # multiplicative basis and the inherited kernel split
        for part in dec.parts:
            sub, sub_split = restrict_to_indices(alg, split, part.vertices)
            assert check_leibniz(sub) == []
            assert validate_split(sub, sub_split)
            sub_table = to_multiplicative(sub, sub_split)
            assert len(sub_table.entries) > 0

    _report(8, "8-dim direct sum decomposes into parts of dims 3 and 5 "
               "with all cross products zero and both parts re-validated",
            body)


def test_criterion_09_rescaling_leaves_the_graph_bit_identical():
    def body():
        rng = random.Random(164)
        for entry in standard_entries():
            alg, split = entry.instantiate()
            _table, graph = _table_graph(alg, split)
            baseline = to_dot(graph, kernel_vertices=split.kernel)
            for _ in range(100):
                diag = [
                    Fraction(rng.choice([1, 2, 3, 5, -1, -2]),
                             rng.choice([1, 2, 3]))
                    for _ in range(alg.dim)
                ]
                scaled, s_split = rescale_basis(alg, split, diag)
                _t, scaled_graph = _table_graph(scaled, s_split)
                assert to_dot(
                    scaled_graph, kernel_vertices=s_split.kernel
                ) == baseline
                assert scaled_graph.edges == graph.edges

    _report(9, "100 random diagonal rescalings per corpus algebra leave "
               "the emitted graph bit-identical", body)


def test_criterion_10_copy_swap_transports_everything():
    def body():
        alg, split = build_example("five_doubled")
        images = [5, 6, 7, 8, 9, 0, 1, 2, 3, 4]
        swap = LinearMap.permutation(Q, images)
        assert is_automorphism(alg, swap) == (True, None)
        bijection = maps_basis_to_basis(swap, alg.labels)
        assert bijection is not None
        table, graph = _table_graph(alg, split)
        assert induced_graph_isomorphism(graph, graph, bijection)
        dec = decompose(alg, table, split, graph)
        assert decomposition_equivalence(dec, dec, bijection)

    _report(10, "copy-swap automorphism of the doubled 5-dim algebra "
                "certifies graph isomorphism and decomposition "
                "equivalence", body)
