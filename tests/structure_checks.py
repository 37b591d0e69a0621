"""Graph facts that follow from the paper's theorems.

The tests verify them on concrete instances; the package itself does not
need them.
"""

from __future__ import annotations

from typing import Optional

from leibniz_graphs.algebra import BasisSplit, LeibnizAlgebra, MultiplicativeTable
from leibniz_graphs.errors import InternalInvariantViolation
from leibniz_graphs.graphs import (
    DiGraph,
    build_graph,
    induced_subgraph,
    is_strongly_connected,
    undirected_components,
)
from leibniz_graphs.structure import enumerate_basis_ideals


def simplicity_necessary(graph: DiGraph) -> bool:
    """Necessary condition for simplicity: one undirected component.
    (Not sufficient; a connected graph proves nothing more.)"""
    return undirected_components(graph).count <= 1


def check_ideal_absorption_props(algebra: LeibnizAlgebra,
                                 table: MultiplicativeTable,
                                 split: BasisSplit, *,
                                 bound: Optional[int] = None) -> bool:
    """Verify, by enumeration, the two absorption consequences of strong
    connectivity:

    * kernel subgraph strongly connected: every subset ideal meeting the
      kernel part contains the whole kernel;
    * complement subgraph strongly connected: every subset ideal meeting
      the complement part is the whole algebra.

    Raises InternalInvariantViolation on a counterexample.
    """
    graph = build_graph(table, split)
    strong_k = is_strongly_connected(induced_subgraph(graph, "kernel", split))
    strong_j = is_strongly_connected(
        induced_subgraph(graph, "complement", split))
    kernel = set(split.kernel)
    complement = set(split.complement)
    full = tuple(range(algebra.dim))
    for subset in enumerate_basis_ideals(algebra, bound):
        sset = set(subset)
        if strong_k and kernel and (sset & kernel) and not kernel <= sset:
            raise InternalInvariantViolation(
                f"ideal {subset} meets the kernel part without absorbing it"
            )
        if strong_j and complement and (sset & complement) and subset != full:
            raise InternalInvariantViolation(
                f"ideal {subset} meets the complement part but is proper"
            )
    return True
