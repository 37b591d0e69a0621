"""Ideal lattice, decomposition, weak division and minimality routes."""

from __future__ import annotations

import re
import tracemalloc
from collections import Counter

import pytest

from leibniz_graphs import algebra as algebra_module
from leibniz_graphs import scalars as scalars_module
from leibniz_graphs import structure

from leibniz_graphs.algebra import (
    BasisSplit,
    LeibnizAlgebra,
    to_multiplicative,
)
from leibniz_graphs.corpus import (
    build_example,
    filiform,
    five_dim,
    odd_family,
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
    ENUM_BOUND_ENV,
    analysis_report,
    check_minimality,
    check_weak_division,
    cross_validate,
    decompose,
    enumerate_basis_ideals,
    enumeration_bound,
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


def test_enumeration_bound_guard(monkeypatch):
    alg, _ = five_dim()
    with pytest.raises(DimensionTooLargeError):
        enumerate_basis_ideals(alg, bound=3)
    monkeypatch.setenv(ENUM_BOUND_ENV, "3")
    assert enumeration_bound() == 3
    with pytest.raises(DimensionTooLargeError):
        enumerate_basis_ideals(alg)
    monkeypatch.setenv(ENUM_BOUND_ENV, "16")
    assert enumerate_basis_ideals(alg)[1] == (3, 4)


def test_decompose_direct_sum_into_two_parts():
    alg, split = build_example("ud_plus_five")
    table, graph = _table_graph(alg, split)
    dec = decompose(alg, table, split, graph)
    assert dec.count == 2
    assert dec.vertex_sets() == ((0, 1, 2), (3, 4, 5, 6, 7))
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
    # Each generator ideal is held as sparse rows and dropped once its
    # checks are done; with a dense n-tuple per row and every ideal kept
    # alive, this call peaked at 19.9 MB.
    alg, split = odd_family(121)
    table = to_multiplicative(alg, split, validate=False)
    (holds, violations), peak = _traced_peak(
        lambda: check_weak_division(alg, table, split))
    assert holds and violations == []
    assert peak < 2_000_000

    # cross_validate holds one generator ideal at a time as well; with
    # every ideal kept alive until its reachability loop, it peaked at
    # 3.6 MB here.
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
        ideal = generated_ideal(alg, alg.unit(v))
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
    real = structure.reachable_from

    def lying(graph, v):
        return (v,) if v == vertex else real(graph, v)

    monkeypatch.setattr(structure, "reachable_from", lying)
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
        alg, split = entry.build()
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


SHARED = ("enumerate_basis_ideals", "check_weak_division", "build_graph")


@pytest.mark.parametrize("name", ("five_dim", "five_doubled", "ud_plus_five"))
def test_analysis_report_computes_each_fact_once(monkeypatch, name):
    alg, split = build_example(name)
    calls = _count_calls(monkeypatch, SHARED)
    report = analysis_report(alg, split)
    assert report["minimality"]["oracle"] is not None
    assert calls == Counter(dict.fromkeys(SHARED, 1))

    calls.clear()
    report = analysis_report(alg, split, oracle=False)
    assert report["oracle_ideals"] is None
    assert calls == Counter(check_weak_division=1, build_graph=1)


def test_cross_validate_and_check_minimality_compute_each_fact_once(
        monkeypatch):
    alg, split = build_example("five_doubled")
    calls = _count_calls(monkeypatch, SHARED)
    cross_validate(alg, split)
    assert calls == Counter(dict.fromkeys(SHARED, 1))

    calls.clear()
    table = to_multiplicative(alg, split)
    check_minimality(alg, table, split)
    assert calls == Counter(dict.fromkeys(SHARED, 1))


def test_enumeration_confirms_every_listed_set(monkeypatch):
    # a closed set that is_ideal rejects must not be dropped silently
    alg, _split = five_dim()
    real = structure.is_ideal

    def rejecting(algebra, subspace):
        if subspace.basis_members() == (3, 4):
            return False
        return real(algebra, subspace)

    monkeypatch.setattr(structure, "is_ideal", rejecting)
    with pytest.raises(InternalInvariantViolation, match=r"\(3, 4\)"):
        enumerate_basis_ideals(alg)


def test_cross_validate_closes_each_generator_once_per_call(monkeypatch):
    # check_weak_division and the reachability check share one map of
    # basis-vector ideals within a cross_validate call, not across calls
    alg, split = build_example("five_doubled")
    closed = Counter()
    real = structure.unit_ideal

    def counting(algebra, m):
        closed[m] += 1
        return real(algebra, m)

    monkeypatch.setattr(structure, "unit_ideal", counting)
    for _call in range(2):
        closed.clear()
        stats = cross_validate(alg, split)
        assert stats["reachability_pairs"] > 0
        assert set(closed) == set(range(alg.dim))
        assert set(closed.values()) == {1}

    # outside cross_validate, check_weak_division closes each generator
    # it needs once
    closed.clear()
    check_weak_division(alg, to_multiplicative(alg, split), split)
    assert closed and set(closed.values()) == {1}
