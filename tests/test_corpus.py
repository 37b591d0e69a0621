"""Example builders, transforms, and the seeded fuzz generator."""

from __future__ import annotations

import pytest

from leibniz_graphs import corpus
from leibniz_graphs.algebra import (
    BasisSplit,
    LeibnizAlgebra,
    check_leibniz,
    to_multiplicative,
    validate_split,
)
from leibniz_graphs.corpus import (
    build_example,
    direct_sum,
    filiform,
    five_dim,
    fuzz_algebra,
    fuzz_instances,
    odd_family,
    permute_basis,
    rescale_basis,
    standard_entries,
    ud_component,
)
from leibniz_graphs.errors import (
    BadParamsError,
    FieldCharUnsupportedError,
    UnknownExampleError,
)
from leibniz_graphs.graphs import build_graph, undirected_components
from leibniz_graphs.scalars import FieldSpec
from leibniz_graphs.structure import check_minimality, cross_validate

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)


def test_standard_entries_match_their_frozen_facts():
    entries = standard_entries()
    assert len(entries) == 7
    names = [e.name for e in entries]
    assert names.count("odd_family") == 2
    for entry in entries:
        alg, split = entry.instantiate()
        assert alg.identity_verified
        assert entry.origin
        expected = entry.expected
        assert [alg.labels[i] for i in split.kernel] == expected["kernel"]
        table = to_multiplicative(alg, split)
        graph = build_graph(table, split)
        assert len(graph.edges) == expected["edge_count"], entry.name
        parts = undirected_components(graph).count
        assert parts == expected["components"], entry.name
        verdict = check_minimality(alg, table, split)
        assert verdict.minimal is expected["minimal"], entry.name


def test_odd_family_at_n_five_is_the_five_dim_example():
    odd, odd_split = odd_family(5)
    # reorder (e, f, h, x_0, x_1) -> (e, h, f, x_0, x_1)
    perm, perm_split, _pos = permute_basis(odd, odd_split, [0, 2, 1, 3, 4])
    ref, ref_split = five_dim()
    assert perm.products == ref.products
    assert perm_split == ref_split
    assert perm.labels == ("e", "h", "f", "x_0", "x_1")


def test_builder_parameter_validation():
    with pytest.raises(BadParamsError):
        filiform(1)
    with pytest.raises(BadParamsError):
        odd_family(4)
    with pytest.raises(BadParamsError):
        odd_family(6)
    with pytest.raises(UnknownExampleError):
        build_example("heisenberg")
    with pytest.raises(BadParamsError):
        build_example("filiform")  # n is required


def test_characteristic_exclusions():
    with pytest.raises(FieldCharUnsupportedError):
        five_dim(FieldSpec.prime(2))
    with pytest.raises(FieldCharUnsupportedError):
        odd_family(7, FieldSpec.prime(3))  # 1*(1+3-7) = -3 vanishes
    # all-ones constants survive any characteristic
    alg, split = filiform(5, FieldSpec.prime(2))
    assert validate_split(alg, split)
    alg, split = ud_component(FieldSpec.prime(2))
    assert validate_split(alg, split)
    # five_dim only needs 2 != 0
    alg, split = five_dim(FieldSpec.prime(3))
    assert [alg.labels[i] for i in split.kernel] == ["p", "q"]


def test_build_example_forwards_params():
    alg, _ = build_example("odd_family", {"n": 7})
    assert alg.dim == 7
    alg, _ = build_example("five_dim", {"field": F5})
    assert alg.field == F5


def test_build_example_rejects_unknown_params():
    # a parameter the builder does not take is an error, not ignored
    with pytest.raises(BadParamsError, match="'n'"):
        build_example("five_dim", {"n": 7})
    with pytest.raises(BadParamsError, match="'bogus'"):
        build_example("ud_plus_five", {"bogus": 1})
    with pytest.raises(BadParamsError):
        build_example("odd_family", {"n": 7, "m": 3})


def test_build_example_checks_parameters_before_building(monkeypatch):
    with pytest.raises(BadParamsError, match="n must be int, got '5'"):
        build_example("filiform", {"n": "5"})
    with pytest.raises(BadParamsError, match="n must be int, got True"):
        build_example("odd_family", {"n": True})
    with pytest.raises(BadParamsError, match="field must be FieldSpec"):
        build_example("five_dim", {"field": 5})
    # the message names the example, not the private function behind it
    with pytest.raises(BadParamsError) as info:
        build_example("ud_plus_five", {"bogus": 1})
    assert str(info.value) == ("bad parameters for 'ud_plus_five': "
                               "ud_plus_five() got an unexpected keyword "
                               "argument 'bogus'")

    # a TypeError raised inside a builder is not a parameter error
    def broken(n, field=Q):
        raise TypeError("raised by the builder")

    monkeypatch.setitem(corpus._BUILDERS, "filiform", broken)
    with pytest.raises(TypeError, match="raised by the builder"):
        build_example("filiform", {"n": 5})


def test_direct_sum_is_a_disjoint_union():
    a, a_split = five_dim()
    b, b_split = five_dim()
    total, total_split = direct_sum(a, a_split, b, b_split)
    assert total.labels == (
        "e", "h", "f", "p", "q", "e'", "h'", "f'", "p'", "q'",
    )
    assert total_split.kernel == (3, 4, 8, 9)
    assert total.identity_verified

    graph_a = build_graph(to_multiplicative(a, a_split), a_split)
    graph = build_graph(to_multiplicative(total, total_split), total_split)
    shifted = {(x + 5, y + 5) for x, y in graph_a.edges}
    assert set(graph.edges) == set(graph_a.edges) | shifted

    with pytest.raises(ValueError):
        direct_sum(a, a_split, *five_dim(F5))


def test_rescale_basis_transforms_constants():
    alg, split = five_dim()
    scaled, s_split = rescale_basis(alg, split, [2, 1, 1, 1, 1])
    # [e,h] = 2e picks up d_e * d_h / d_e = 1; [e,f] = h picks up d_e = 2
    table = to_multiplicative(scaled, s_split)
    assert table.get(0, 1) == (0, Q.scalar(2))
    assert table.get(0, 2) == (1, Q.scalar(2))
    assert s_split == split
    with pytest.raises(ValueError):
        rescale_basis(alg, split, [0, 1, 1, 1, 1])
    with pytest.raises(ValueError):
        rescale_basis(alg, split, [1, 1])


def test_permute_basis_rejects_non_permutations():
    alg, split = five_dim()
    with pytest.raises(ValueError):
        permute_basis(alg, split, [0, 0, 1, 2, 3])


def test_fuzz_algebra_is_deterministic():
    first = fuzz_algebra(seed=3)
    second = fuzz_algebra(seed=3)
    assert (first is None) == (second is None)
    if first is not None:
        assert first[0] == second[0] and first[1] == second[1]


def test_fuzz_algebra_parameter_validation():
    with pytest.raises(BadParamsError):
        fuzz_algebra(seed=0, field=Q)
    with pytest.raises(BadParamsError):
        fuzz_algebra(seed=0, dim=5)


def test_fuzz_rejects_and_accepts():
    outcomes = [fuzz_algebra(seed) for seed in range(120)]
    accepted = [o for o in outcomes if o is not None]
    assert accepted and len(accepted) < len(outcomes)
    for alg, split in accepted[:10]:
        assert check_leibniz(alg) == []
        assert validate_split(alg, split)


def test_the_zero_table_is_accepted():
    # the abelian algebra passes both validation gates with empty kernel
    n = 3
    alg = LeibnizAlgebra(F5, ("v0", "v1", "v2"), {})
    assert check_leibniz(alg) == []
    assert validate_split(alg, BasisSplit.of(n, ()))
    # and the sampler does reach it
    hits = [
        inst for inst in (fuzz_algebra(seed) for seed in range(300))
        if inst is not None and not inst[0].products
    ]
    assert hits
    assert all(inst[1].kernel == () for inst in hits)


def test_fuzz_acceptance_rate_is_positive_at_scale():
    accepted = sum(
        1 for seed in range(10_000) if fuzz_algebra(seed) is not None
    )
    assert accepted > 0
    assert accepted < 10_000


def test_fuzz_instances_stream():
    got = fuzz_instances(seed=7, count=12)
    again = fuzz_instances(seed=7, count=12)
    assert len(got) == 12
    for (a1, s1), (a2, s2) in zip(got, again):
        assert a1 == a2 and s1 == s2
    base_only = fuzz_instances(seed=7, count=5, transforms=False)
    assert all(a.dim <= 4 for a, _s in base_only)
    for alg, split in got[:6]:
        cross_validate(alg, split)
