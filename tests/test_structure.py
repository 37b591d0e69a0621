"""Ideal lattice, decomposition, weak division and minimality routes."""

from __future__ import annotations

import gc
import random
import re
import tracemalloc
import weakref
from collections import Counter

import pytest

from leibniz_graphs import algebra as algebra_module
from leibniz_graphs import graphs as graphs_module
from leibniz_graphs import scalars as scalars_module
from leibniz_graphs import structure

from leibniz_graphs.algebra import (
    BasisSplit,
    LeibnizAlgebra,
    MultiplicativeTable,
    to_multiplicative,
    unit_ideal,
)
from leibniz_graphs.corpus import (
    build_example,
    direct_sum,
    filiform,
    five_dim,
    odd_family,
    permute_basis,
    standard_entries,
    ud_component,
)
from leibniz_graphs.errors import (
    DimensionTooLargeError,
    InternalInvariantViolation,
)
from leibniz_graphs.graphs import (
    DiGraph,
    build_graph,
    induced_subgraph,
    reachable_from,
)
from leibniz_graphs.scalars import FieldSpec, Subspace, unit_vector
from leibniz_graphs.structure import (
    analysis_report,
    check_minimality,
    check_weak_division,
    cross_validate,
    decompose,
    enumerate_basis_ideals,
    generated_ideal,
    is_ideal,
    restrict_to_indices,
)
from structure_checks import check_ideal_absorption_props, simplicity_necessary
from vectors import zero_vector

Q = FieldSpec.rationals()


def _abelian(n):
    labels = tuple(f"a_{i}" for i in range(n))
    return LeibnizAlgebra(Q, labels, {})


def _table_graph(alg, split):
    table = to_multiplicative(alg, split)
    return table, build_graph(table, split)


def test_is_ideal_golden_cases():
    alg, _ = five_dim()
    assert not is_ideal(alg, Subspace.from_basis_indices(Q, 5, (0,)))
    assert is_ideal(alg, Subspace.from_basis_indices(Q, 5, (3, 4)))
    assert is_ideal(alg, Subspace.from_basis_indices(Q, 5, range(5)))
    assert is_ideal(alg, Subspace.from_vectors(Q, 5, []))


def test_generated_ideal_golden_cases():
    alg, _ = five_dim()
    assert generated_ideal(alg, unit_vector(Q, 5, 3)) == \
        Subspace.from_basis_indices(Q, 5, (3, 4))
    assert generated_ideal(alg, unit_vector(Q, 5, 0)).rank == 5
    assert generated_ideal(alg, zero_vector(Q, 5)).rank == 0

    fil, _ = filiform(5)
    assert generated_ideal(fil, unit_vector(Q, 5, 1)) == \
        Subspace.from_basis_indices(Q, 5, (1, 2, 3, 4))
    assert generated_ideal(fil, unit_vector(Q, 5, 3)) == \
        Subspace.from_basis_indices(Q, 5, (3, 4))


def test_enumerate_basis_ideals_five_dim():
    alg, _ = five_dim()
    assert enumerate_basis_ideals(alg) == [(), (3, 4), (0, 1, 2, 3, 4)]


def test_enumerate_basis_ideals_filiform():
    alg, _ = filiform(5)
    # the subset ideals form the chain of tails of e_2..e_5
    assert enumerate_basis_ideals(alg) == [
        (), (4,), (3, 4), (2, 3, 4), (1, 2, 3, 4), (0, 1, 2, 3, 4),
    ]


def test_enumerate_basis_ideals_abelian():
    # in an abelian algebra every basis subset spans an ideal
    assert enumerate_basis_ideals(_abelian(2)) == [
        (), (0,), (1,), (0, 1),
    ]


def test_enumeration_bound_guard():
    alg, _ = five_dim()
    with pytest.raises(DimensionTooLargeError):
        enumerate_basis_ideals(alg, bound=3)
    assert enumerate_basis_ideals(alg, bound=5)[1] == (3, 4)
    # the default bound is 16
    with pytest.raises(DimensionTooLargeError, match="bound 16"):
        enumerate_basis_ideals(_abelian(17))


def test_analysis_report_honours_the_enumeration_bound():
    alg, split = five_dim()
    for oracle in (None, True):
        report = analysis_report(alg, split, oracle=oracle, bound=5)
        assert report["minimality"]["oracle"] is True
    assert analysis_report(alg, split, bound=4)["minimality"]["oracle"] is None
    with pytest.raises(DimensionTooLargeError):
        analysis_report(alg, split, oracle=True, bound=4)
    assert analysis_report(alg, split, oracle=False)["oracle_ideals"] is None


def test_decompose_direct_sum_into_two_parts():
    alg, split = build_example("ud_plus_five")
    table, graph = _table_graph(alg, split)
    dec = decompose(alg, table, split, graph)
    assert dec.count == 2
    assert [part.vertices for part in dec.parts] == [(0, 1, 2),
                                                     (3, 4, 5, 6, 7)]
    first, second = dec.parts
    assert first.component_id == 0 and second.component_id == 3
    assert first.labels == ("u_d", "e_0", "e_1")
    assert second.labels == ("e", "h", "f", "p", "q")
    assert first.subspace.rank == 3 and second.subspace.rank == 5
    assert first.dim == 3


def test_decompose_connected_instance_is_one_part():
    alg, split = five_dim()
    table, graph = _table_graph(alg, split)
    dec = decompose(alg, table, split)
    assert dec.count == 1
    assert dec.parts[0].vertices == (0, 1, 2, 3, 4)


def test_decompose_rejects_a_graph_that_lies():
    # feeding a graph with missing edges makes components that are not
    # ideals; the defensive re-verification must catch that
    alg, split = build_example("ud_plus_five")
    table, graph = _table_graph(alg, split)
    bare = DiGraph(graph.vertices, graph.labels, frozenset())
    with pytest.raises(InternalInvariantViolation):
        decompose(alg, table, split, bare)


def test_restrict_to_indices_recovers_the_summand():
    alg, split = build_example("ud_plus_five")
    sub, sub_split = restrict_to_indices(alg, split, (0, 1, 2))
    ref, ref_split = ud_component()
    assert sub == ref
    assert sub_split == ref_split
    assert sub.identity_verified

    five, _ = five_dim()
    with pytest.raises(ValueError):
        restrict_to_indices(five, BasisSplit.of(5, (3, 4)), (0, 2))


def test_decomposition_parts_revalidate_end_to_end():
    alg, split = build_example("five_doubled")
    table, graph = _table_graph(alg, split)
    for part in decompose(alg, table, split, graph).parts:
        sub, sub_split = restrict_to_indices(alg, split, part.vertices)
        report = analysis_report(sub, sub_split)
        assert report["minimality"]["minimal"] is True


def test_weak_division_five_dim_holds():
    alg, split = five_dim()
    table, _ = _table_graph(alg, split)
    holds, violations = check_weak_division(alg, table, split)
    assert holds and violations == []


def test_weak_division_filiform_violations():
    alg, split = filiform(5)
    table, _ = _table_graph(alg, split)
    holds, violations = check_weak_division(alg, table, split)
    assert not holds
    # [e_2, e_1] = e_3 but e_2 is not in the ideal generated by e_3
    assert violations[0] == ((1, 0), 2, 1)
    assert len(violations) == 3


def _traced_peak(call):
    """call() and the tracemalloc peak reached while it ran."""
    tracemalloc.start()
    try:
        result = call()
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_weak_division_memory_is_bounded():
    # Each generator ideal is held as one int bitmask of basis vectors,
    # n^2 bits in all; with a dense n-tuple per row and every ideal kept
    # alive as a subspace, this call peaked at 19.9 MB.
    alg, split = odd_family(121)
    table = to_multiplicative(alg, split, validate=False)
    (holds, violations), peak = _traced_peak(
        lambda: check_weak_division(alg, table, split))
    assert holds and violations == []
    assert peak < 2_000_000

    # cross_validate keeps every generator mask until it returns; with
    # every ideal kept alive as a subspace until its reachability loop,
    # it peaked at 3.6 MB here.
    alg, split = filiform(150)
    stats, peak = _traced_peak(
        lambda: cross_validate(alg, split, oracle=False))
    assert stats["reachability_pairs"] == 149 * 149 + 1
    assert peak < 1_000_000


@pytest.mark.parametrize("build, n", [(filiform, 500), (odd_family, 241)])
def test_generator_ideals_close_without_field_arithmetic(build, n,
                                                         monkeypatch):
    # On a multiplicative basis the ideal of a basis vector is spanned by
    # basis vectors, so its closure admits unit rows only and never needs
    # echelon
    alg, _split = build(n)
    calls = []
    real_echelon = algebra_module.echelon

    def counting_echelon(*args, **kwargs):
        calls.append(None)
        return real_echelon(*args, **kwargs)

    monkeypatch.setattr(algebra_module, "echelon", counting_echelon)
    for v in range(alg.dim):
        ideal = generated_ideal(alg, unit_vector(alg.field, alg.dim, v))
        assert v in ideal.basis_members()
        assert len(ideal.basis_members()) == ideal.rank
    assert calls == []


def test_coordinate_ideal_tests_run_no_elimination(monkeypatch):
    # is_ideal on basis subsets and membership of basis vectors are set
    # lookups; neither brackets nor eliminates a row
    alg, split = odd_family(15)
    table = to_multiplicative(alg, split, validate=False)
    calls = Counter()
    for module, name in ((scalars_module, "_eliminate"),
                         (structure, "basis_brackets")):
        real = getattr(module, name)

        def counted(*args, _real=real, _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    verdict = check_minimality(alg, table, split, oracle=True)
    assert verdict.minimal and verdict.oracle_minimal
    assert cross_validate(alg, split, oracle=True)["oracle_ran"]
    assert calls == Counter()


@pytest.mark.parametrize("vertex, pair", (
    (3, "(e, h)"),     # an output generator: checked inside weak division
    (1, "(e_0, e_1)"),  # only output of [u_d, u_d], which crosses the parts,
                        # so weak division never asks for its ideal
))
def test_cross_validate_catches_a_lying_reachability(monkeypatch, vertex,
                                                     pair):
    alg, split = build_example("ud_plus_five")
    real = structure._reach_masks

    def lying(graph):
        reach = real(graph)
        if vertex in graph.vertices:
            reach[vertex] = 1 << vertex  # v reaches only itself
        return reach

    monkeypatch.setattr(structure, "_reach_masks", lying)
    with pytest.raises(InternalInvariantViolation, match=re.escape(pair)):
        cross_validate(alg, split)


def test_reachability_matches_generated_ideal_inside_a_part():
    alg, split = five_dim()
    _table, graph = _table_graph(alg, split)
    sub_k = induced_subgraph(graph, "kernel", split)
    members = reachable_from(sub_k, 3)
    ideal = generated_ideal(alg, unit_vector(Q, 5, 3))
    assert members == ideal.basis_members() == (3, 4)


def test_minimality_verdicts_across_the_corpus():
    want = {
        "five_dim": True,
        "filiform": False,
        "ud_component": False,
        "ud_plus_five": False,
        "five_doubled": False,
    }
    for name, expect in want.items():
        params = {"n": 5} if name == "filiform" else None
        alg, split = build_example(name, params)
        table, _ = _table_graph(alg, split)
        verdict = check_minimality(alg, table, split)
        assert verdict.minimal is expect, name
        assert verdict.oracle_minimal is expect, name
        assert verdict.via_graph == verdict.via_division == expect, name


def test_minimality_of_the_odd_family():
    for n in (5, 7, 9):
        alg, split = odd_family(n)
        table, _ = _table_graph(alg, split)
        verdict = check_minimality(alg, table, split)
        assert verdict.minimal
        assert verdict.strong_kernel and verdict.strong_complement
        assert verdict.weak_division


def test_minimality_oracle_toggle():
    alg, split = five_dim()
    table, _ = _table_graph(alg, split)
    off = check_minimality(alg, table, split, oracle=False)
    assert off.minimal and off.oracle_minimal is None
    with pytest.raises(DimensionTooLargeError):
        check_minimality(alg, table, split, oracle=True, bound=3)
    # auto mode skips the oracle when the dimension exceeds the bound
    auto = check_minimality(alg, table, split, bound=3)
    assert auto.oracle_minimal is None


def test_minimality_details_on_filiform():
    alg, split = filiform(5)
    table, _ = _table_graph(alg, split)
    verdict = check_minimality(alg, table, split)
    assert not verdict.strong_kernel
    assert verdict.strong_complement  # single vertex e_1
    assert not verdict.weak_division
    assert verdict.connected_kernel and verdict.connected_complement


def test_simplicity_necessary_condition():
    alg, split = five_dim()
    _table, graph = _table_graph(alg, split)
    assert simplicity_necessary(graph)
    alg, split = build_example("ud_plus_five")
    _table, graph = _table_graph(alg, split)
    assert not simplicity_necessary(graph)


def test_ideal_absorption_consequences():
    for name, params in (
        ("five_dim", None),
        ("filiform", {"n": 5}),
        ("odd_family", {"n": 7}),
        ("ud_plus_five", None),
    ):
        alg, split = build_example(name, params)
        table, _ = _table_graph(alg, split)
        assert check_ideal_absorption_props(alg, table, split)


def test_cross_validate_standard_corpus():
    for entry in standard_entries():
        alg, split = entry.instantiate()
        counters = cross_validate(alg, split)
        k, j = len(split.kernel), len(split.complement)
        assert counters["reachability_pairs"] == k * k + j * j
        assert counters["minimal"] == entry.expected["minimal"]
        assert counters["oracle_ran"]


def test_analysis_report_five_dim():
    alg, split = five_dim()
    report = analysis_report(alg, split)
    assert report["field"] == "Q"
    assert report["kernel"] == ["p", "q"]
    assert report["dimension"] == 5
    assert report["table_entries"] == 10
    assert report["graph"]["edge_count"] == 14
    assert report["subgraphs"]["kernel"]["strongly_connected"]
    assert report["subgraphs"]["complement"]["strongly_connected"]
    assert report["minimality"]["minimal"] is True
    assert report["minimality"]["oracle"] is True
    assert report["oracle_ideals"] == [
        [], ["p", "q"], ["e", "h", "f", "p", "q"],
    ]
    assert report["components"] == [["e", "h", "f", "p", "q"]]
    assert report["flags"] == []
    assert report == analysis_report(alg, split)


def test_analysis_report_filiform_witness():
    alg, split = filiform(5)
    report = analysis_report(alg, split)
    block = report["subgraphs"]["kernel"]
    assert not block["weakly_symmetric"]
    assert block["weak_symmetry_witness"] == ["e_2", "e_3"]
    assert report["minimality"]["minimal"] is False
    division = report["weak_division"]
    assert not division["holds"]
    assert division["violations"][0] == {
        "product": {"l": "e_2", "r": "e_1", "out": "e_3", "c": "1"},
        "missing_member": "e_2",
    }


def test_analysis_report_degenerate_flags():
    alg = _abelian(1)
    split = BasisSplit.of(1, ())
    report = analysis_report(alg, split)
    assert report["flags"] == ["empty-kernel-part", "degenerate-dimension"]
    assert report["minimality"]["minimal"] is True  # no proper nonzero ideals
    assert report["kernel"] == []


def _count_calls(monkeypatch, names) -> Counter:
    """Wrap each named structure global with a call counter."""
    calls = Counter()
    for name in names:
        original = getattr(structure, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(structure, name, counted)
    return calls


# the functions behind the facts of the analysis, as structure binds them;
# check_weak_division is a reader of the analysis, which never calls it
SHARED = ("to_multiplicative", "build_graph", "induced_subgraph",
          "undirected_components", "is_weakly_symmetric",
          "enumerate_basis_ideals", "check_weak_division")


def _count_facts(monkeypatch) -> Counter:
    """Count the computations of each derived fact of the analysis."""
    computed = Counter()
    for name, fact in vars(structure._Analysis).items():
        if isinstance(fact, graphs_module._derived):
            def counted(facts, _name=name, _compute=fact.compute):
                computed[_name] += 1
                return _compute(facts)

            monkeypatch.setattr(fact, "compute", counted)
    return computed


def _once(*names) -> Counter:
    return Counter(dict.fromkeys(names, 1))


DECISION_FACTS = ("graph", "sub_k", "sub_j", "weak_division", "ideals",
                  "verdict")


@pytest.mark.parametrize("name", ("five_dim", "five_doubled", "ud_plus_five"))
def test_analysis_report_computes_each_fact_once(monkeypatch, name):
    alg, split = build_example(name)
    facts = _count_facts(monkeypatch)
    calls = _count_calls(monkeypatch, SHARED)
    for oracle in (None, False):
        facts.clear()
        calls.clear()
        report = analysis_report(alg, split, oracle=oracle)
        assert (report["oracle_ideals"] is None) == (oracle is False)
        assert facts == _once("table", "components", "weak_symmetry",
                              *DECISION_FACTS)
        # undirected components of the graph and of both part subgraphs
        assert calls == Counter(to_multiplicative=1, build_graph=1,
                                induced_subgraph=2, undirected_components=3,
                                is_weakly_symmetric=2,
                                enumerate_basis_ideals=int(oracle is None))


def test_cross_validate_and_check_minimality_compute_each_fact_once(
        monkeypatch):
    # cross_validate decides weak division on the generator masks that
    # its reachability check closed
    alg, split = build_example("five_doubled")
    table = to_multiplicative(alg, split)
    facts = _count_facts(monkeypatch)
    calls = _count_calls(monkeypatch, SHARED)
    cross_validate(alg, split)
    assert facts == _once("table", "weak_symmetry", *DECISION_FACTS)
    assert calls == Counter(to_multiplicative=1, build_graph=1,
                            induced_subgraph=2, undirected_components=2,
                            is_weakly_symmetric=2, enumerate_basis_ideals=1)

    # check_minimality on the same algebra, with a table equal to the one
    # the held analysis derived, reads that analysis: no fact, no call
    facts.clear()
    calls.clear()
    assert check_minimality(alg, table, split).minimal is False
    assert not facts and not calls


def test_minimality_routes_must_agree(monkeypatch):
    # a graph route that says "not minimal" against a division route that
    # says "minimal" is a broken theorem, with or without the oracle
    alg, split = five_dim()
    table = to_multiplicative(alg, split)
    monkeypatch.setattr(structure, "is_strongly_connected",
                        lambda graph: False)
    with pytest.raises(InternalInvariantViolation,
                       match="minimality routes disagree"):
        check_minimality(alg, table, split, oracle=False)


def test_enumeration_confirms_every_listed_set(monkeypatch):
    # a closed set that the coordinate ideal test rejects must not be
    # dropped silently
    alg, _split = five_dim()
    real = structure._spans_ideal

    def rejecting(algebra, members):
        if members == {3, 4}:
            return False
        return real(algebra, members)

    monkeypatch.setattr(structure, "_spans_ideal", rejecting)
    with pytest.raises(InternalInvariantViolation, match=r"\(3, 4\)"):
        enumerate_basis_ideals(alg)


def test_cross_validate_closes_each_generator_once_per_call(monkeypatch):
    # weak division and the reachability check share the generator masks
    # of the analysis the algebra holds: a second call on the same algebra
    # closes none, and an equal but distinct algebra closes its own
    alg, split = build_example("five_doubled")
    closed = Counter()
    real = structure._GeneratorIdeals._close

    def counting(self, v):
        closed[v] += 1
        return real(self, v)

    monkeypatch.setattr(structure._GeneratorIdeals, "_close", counting)
    stats = cross_validate(alg, split)
    assert stats["reachability_pairs"] > 0
    assert set(closed) == set(range(alg.dim))
    assert set(closed.values()) == {1}

    closed.clear()
    assert cross_validate(alg, split) == stats
    assert not closed

    other, other_split = build_example("five_doubled")
    assert other == alg and other is not alg
    assert cross_validate(other, other_split) == stats
    assert set(closed) == set(range(alg.dim))
    assert set(closed.values()) == {1}

    # outside cross_validate, check_weak_division closes each generator
    # it needs once
    closed.clear()
    fresh, fresh_split = build_example("five_doubled")
    check_weak_division(fresh, to_multiplicative(fresh, fresh_split),
                        fresh_split)
    assert closed and set(closed.values()) == {1}


def test_held_analysis_answers_only_its_own_split():
    alg, split = filiform(5)
    assert analysis_report(alg, split)["kernel"] == [
        "e_2", "e_3", "e_4", "e_5"]
    assert analysis_report(alg, BasisSplit.of(alg.dim, ()))["kernel"] == []
    assert analysis_report(alg, split)["kernel"] == [
        "e_2", "e_3", "e_4", "e_5"]


def test_held_analysis_answers_only_its_own_oracle_and_bound():
    alg, split = five_dim()
    table = to_multiplicative(alg, split)
    assert analysis_report(alg, split, oracle=False)["oracle_ideals"] is None
    assert analysis_report(alg, split)["oracle_ideals"] is not None
    # the default oracle runs up to the bound, and dimension 5 exceeds 4
    assert check_minimality(alg, table, split, bound=4).oracle_minimal is None
    assert check_minimality(alg, table, split, bound=5).oracle_minimal is True


def test_held_analysis_answers_only_its_own_table_and_graph():
    # filiform(5) fails weak division and its graph is connected; an empty
    # table passes weak division and an edgeless graph splits the basis
    # into single vectors that do not span ideals
    alg, split = filiform(5)
    table = to_multiplicative(alg, split)
    assert cross_validate(alg, split)["weak_division"] is False
    empty = MultiplicativeTable(alg.field, alg.labels, ())
    assert check_weak_division(alg, empty, split) == (True, [])
    holds, violations = check_weak_division(alg, table, split)
    assert holds is False and violations
    violations.clear()   # the caller's copy, not the held list
    assert check_weak_division(alg, table, split)[1]

    assert decompose(alg, table, split).count == 1
    edgeless = DiGraph(tuple(range(alg.dim)), alg.labels, frozenset())
    with pytest.raises(InternalInvariantViolation,
                       match="does not span an ideal"):
        decompose(alg, table, split, graph=edgeless)
    assert decompose(alg, table, split,
                     graph=build_graph(table, split)).count == 1


def test_held_analysis_is_freed_with_its_algebra():
    # the analysis refers to its algebra weakly, so reference counting
    # alone frees it: no cycle waits for the garbage collector
    gc.disable()
    try:
        alg, split = filiform(40)
        cross_validate(alg, split, oracle=False)
        graph = weakref.ref(alg._analysis.graph)
        assert graph() is not None
        del alg
        assert graph() is None
    finally:
        gc.enable()


def test_a_patched_route_runs_again_on_a_fresh_algebra(monkeypatch):
    alg, split = five_dim()
    table = to_multiplicative(alg, split)
    assert check_minimality(alg, table, split, oracle=False).minimal
    monkeypatch.setattr(structure, "is_strongly_connected",
                        lambda graph: False)
    # the verdict the algebra holds answers again ...
    assert check_minimality(alg, table, split, oracle=False).minimal
    # ... and an equal but distinct algebra derives its own
    fresh, fresh_split = five_dim()
    with pytest.raises(InternalInvariantViolation,
                       match="minimality routes disagree"):
        check_minimality(fresh, to_multiplicative(fresh, fresh_split),
                         fresh_split, oracle=False)


def _permuted(build, n, seed):
    alg, split = build(n)
    order = list(range(alg.dim))
    random.Random(seed).shuffle(order)
    alg, split, _position = permute_basis(alg, split, order)
    return alg, split


MASK_CASES = [pytest.param(build, n, seed, id=f"{build.__name__}-{n}-{seed}")
              for build, n in ((odd_family, 241), (filiform, 500))
              for seed in (1, 2)]


def _assert_masks_match_unit_ideals(alg, order=None):
    # every mask, closed with reuse in post-order, lists exactly the basis
    # members of the ideal that unit_ideal closes from scratch
    generators = structure._GeneratorIdeals(alg)
    for v in range(alg.dim) if order is None else order:
        want = unit_ideal(alg, v).basis_members()
        assert generators.mask(v) == sum(1 << m for m in want), v


@pytest.mark.parametrize("build, n, seed", MASK_CASES)
def test_generator_masks_match_the_unreused_closure(build, n, seed):
    _assert_masks_match_unit_ideals(_permuted(build, n, seed)[0])


@pytest.mark.parametrize("entry", standard_entries(), ids=lambda e: e.name)
def test_generator_masks_on_the_corpus(entry):
    _assert_masks_match_unit_ideals(entry.instantiate()[0])


def test_generator_masks_on_a_direct_sum_closed_back_to_front():
    # w = e_5 ends the filiform summand and w + 1 = e starts the other,
    # whose masks are closed first: a closure that lands on the stored
    # mask of w must take in that mask alone, and I(w + 1) lies outside
    alg, _split = direct_sum(*filiform(5), *five_dim())
    _assert_masks_match_unit_ideals(alg, reversed(range(alg.dim)))


class _CountingRows(tuple):
    """A row index of an algebra that counts the entries read through it."""

    read = 0

    def __getitem__(self, m):
        row = tuple.__getitem__(self, m)
        _CountingRows.read += len(row)
        return row


@pytest.mark.parametrize("build, n, seed", MASK_CASES + [
    # basis order is the worst request order for a closure that does not
    # visit outputs first: each generator would walk the whole tail
    pytest.param(filiform, 500, None, id="filiform-500-unpermuted")])
def test_generator_masks_read_linearly_many_bracket_entries(build, n, seed,
                                                            monkeypatch):
    alg, _split = build(n) if seed is None else _permuted(build, n, seed)
    monkeypatch.setattr(_CountingRows, "read", 0)
    alg._left = _CountingRows(alg._left)
    alg._right = _CountingRows(alg._right)
    generators = structure._GeneratorIdeals(alg)
    for v in range(alg.dim):
        generators.mask(v)
    # each closure stops at stored masks, so the entries read stay a small
    # multiple of dim + products (2x on filiform, about 6x on odd_family);
    # closing generators from scratch reads sum |I(v)| rows, quadratic here
    assert _CountingRows.read <= 8 * (alg.dim + len(alg.products))
