"""The directed graph attached to a multiplicative basis, and the graph
predicates the structure theory runs on.

Edge rule: every nonzero product [v_i, v_j] = c * v_k contributes the two
edges (v_i, v_k) and (v_j, v_k); both factors point at the product.
Coefficients are discarded, duplicates collapse, loops are kept.

A DiGraph is immutable, so what is derived from it -- the sorted edge
order, the successor lists, the strong components -- is derived at most
once per graph, on first use; after the one sort every predicate runs in
O(V + E).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Literal

from .algebra import BasisSplit, MultiplicativeTable
from .errors import UnknownVertexError

__all__ = [
    "ComponentPartition",
    "DiGraph",
    "build_graph",
    "edge_list_text",
    "induced_subgraph",
    "is_strongly_connected",
    "is_weakly_symmetric",
    "reachable_from",
    "strong_components",
    "to_dot",
    "undirected_components",
]

Part = Literal["kernel", "complement"]


class _derived:
    """An attribute computed on first access and then stored in the
    instance dict, which later lookups read directly.  This is
    functools.cached_property without its lock, which before Python 3.12
    costs more than deriving the structures of a small graph."""

    def __init__(self, compute):
        self.compute = compute

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.compute(obj)
        return value


@dataclass(frozen=True)
class DiGraph:
    """A digraph on basis indices.  Vertices keep their original algebra
    indices even in induced subgraphs, so labels stay aligned.

    Derived structures are cached on the instance on first use; they are
    not fields, so equality and hashing see only the graph itself."""

    vertices: tuple  # strictly increasing vertex indices
    labels: tuple    # labels[t] names vertices[t]
    edges: frozenset  # pairs (a, b) of vertex indices
    _label: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = tuple(self.vertices)
        if list(vs) != sorted(set(vs)):
            raise ValueError("vertices must be strictly increasing")
        if len(self.labels) != len(vs):
            raise ValueError("one label per vertex required")
        vset = set(vs)
        for a, b in self.edges:
            if a not in vset or b not in vset:
                raise UnknownVertexError(f"edge ({a},{b}) leaves the graph")
        self._fill(vs, tuple(self.labels), frozenset(self.edges))

    @classmethod
    def _trusted(cls, vertices: tuple, labels: tuple, edges: frozenset
                 ) -> "DiGraph":
        """A graph from parts already known to be valid: strictly
        increasing vertices, one label each, edges between them.  The
        constructor's checks are skipped."""
        graph = object.__new__(cls)
        graph._fill(vertices, labels, edges)
        return graph

    def _fill(self, vertices: tuple, labels: tuple, edges: frozenset):
        self.__dict__.update(vertices=vertices, labels=labels, edges=edges,
                             _label=dict(zip(vertices, labels)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def label_of(self, v: int) -> str:
        try:
            return self._label[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in graph") from None

    @_derived
    def _sorted_edges(self) -> tuple:
        return tuple(sorted(self.edges))

    @_derived
    def _successors(self) -> dict:
        """vertex -> list of its out-neighbours (in no particular order;
        every reader's result is order-independent)."""
        succ = {v: [] for v in self.vertices}
        for a, b in self.edges:
            succ[a].append(b)
        return succ

    @_derived
    def _strong(self) -> ComponentPartition:
        return _tarjan(self)

    def sorted_edges(self) -> list:
        """The edges sorted by vertex index pair, as a fresh list."""
        return list(self._sorted_edges)

    def edge_labels(self) -> list:
        """[label_a, label_b] for each edge, in sorted edge order."""
        label = self._label
        return [[label[a], label[b]] for a, b in self._sorted_edges]


def build_graph(table: MultiplicativeTable, split: BasisSplit) -> DiGraph:
    """The digraph of a multiplicative basis: factors point at products."""
    if split.dim != table.dim:
        raise ValueError("split and table disagree on dimension")
    # range(dim) is sorted and has one label each by construction; the
    # table's entries are not checked by the table itself
    n = table.dim
    edges = set()
    for (i, j), (k, _coeff) in table.entries:
        if not (0 <= i < n and 0 <= j < n and 0 <= k < n):
            raise UnknownVertexError(
                f"product [{i},{j}] = {k} leaves the graph")
        edges.add((i, k))
        edges.add((j, k))
    return DiGraph._trusted(tuple(range(n)), tuple(table.labels),
                            frozenset(edges))


def induced_subgraph(graph: DiGraph, part: Part, split: BasisSplit) -> DiGraph:
    """Vertex-induced subgraph on the kernel part or the complement part."""
    if part == "kernel":
        keep = set(split.kernel)
    elif part == "complement":
        keep = set(split.complement)
    else:
        raise ValueError(f"part must be 'kernel' or 'complement', got {part!r}")
    vertices = tuple(v for v in graph.vertices if v in keep)
    labels = tuple(l for v, l in zip(graph.vertices, graph.labels)
                   if v in keep)
    edges = frozenset((a, b) for a, b in graph.edges
                      if a in keep and b in keep)
    return DiGraph._trusted(vertices, labels, edges)


@dataclass(frozen=True)
class ComponentPartition:
    """Assignment of each vertex to a component; ids are deterministic,
    each component is named by its smallest vertex index."""

    kind: Literal["undirected", "strong"]
    assignment: tuple  # sorted tuple of (vertex, component_id)
    _ids: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ids", dict(self.assignment))

    def id_of(self, v: int) -> int:
        try:
            return self._ids[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in partition") from None

    def as_dict(self) -> dict:
        return dict(self._ids)

    def classes(self) -> tuple:
        groups: dict = {}
        for vertex, cid in self.assignment:
            groups.setdefault(cid, []).append(vertex)
        return tuple(tuple(sorted(groups[c])) for c in sorted(groups))

    @property
    def count(self) -> int:
        return len({cid for _v, cid in self.assignment})


def _canonical_partition(kind, vertices, groups: Iterable
                         ) -> ComponentPartition:
    """The partition of ``vertices`` into ``groups``, each group named by
    its smallest vertex."""
    ids = {}
    for group in groups:
        cid = min(group)
        for v in group:
            ids[v] = cid
    return ComponentPartition(kind, tuple((v, ids[v]) for v in vertices))


def undirected_components(graph: DiGraph) -> ComponentPartition:
    """Connected components after forgetting edge directions (one
    depth-first search, O(V + E))."""
    neighbours = {v: [] for v in graph.vertices}
    for a, b in graph.edges:
        neighbours[a].append(b)
        neighbours[b].append(a)
    seen: set = set()
    groups = []
    for root in graph.vertices:
        if root in seen:
            continue
        seen.add(root)
        group = [root]
        for v in group:  # grows while it is walked
            for w in neighbours[v]:
                if w not in seen:
                    seen.add(w)
                    group.append(w)
        groups.append(group)
    return _canonical_partition("undirected", graph.vertices, groups)


def _tarjan(graph: DiGraph) -> ComponentPartition:
    """Strongly connected components, iterative Tarjan, O(V + E)."""
    adj = graph._successors
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    groups: list = []
    for root in graph.vertices:
        if root in index:
            continue
        index[root] = low[root] = len(index)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adj[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                if w not in index:
                    index[w] = low[w] = len(index)
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    break
                if w in on_stack and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if work:
                    parent_v = work[-1][0]
                    if low[v] < low[parent_v]:
                        low[parent_v] = low[v]
                if low[v] == index[v]:
                    group = []
                    while True:
                        w = stack.pop()
                        on_stack.discard(w)
                        group.append(w)
                        if w == v:
                            break
                    groups.append(group)
    return _canonical_partition("strong", graph.vertices, groups)


def strong_components(graph: DiGraph) -> ComponentPartition:
    """Strongly connected components (computed once per graph)."""
    return graph._strong


def reachable_from(graph: DiGraph, v: int) -> tuple:
    """Vertices reachable from v by a directed path; v itself counts
    (the empty path)."""
    adj = graph._successors
    if v not in adj:
        raise UnknownVertexError(f"vertex {v} not in graph")
    seen = {v}
    queue = deque([v])
    while queue:
        for w in adj[queue.popleft()]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def is_weakly_symmetric(graph: DiGraph):
    """True iff both endpoints of every edge lie in one strongly connected
    component; returns (flag, witness_edge_or_None).  The witness is the
    first offending edge in sorted order."""
    ids = strong_components(graph)._ids
    for a, b in graph._sorted_edges:
        if ids[a] != ids[b]:
            return False, (a, b)
    return True, None


def is_strongly_connected(graph: DiGraph) -> bool:
    """True iff there is exactly one strongly connected component.
    Graphs with at most one vertex count as strongly connected."""
    if graph.n <= 1:
        return True
    return strong_components(graph).count == 1


def _quote(label: str) -> str:
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(graph: DiGraph, kernel_vertices: Iterable[int] = (),
           name: str = "leibniz") -> str:
    """Deterministic DOT text; kernel-part vertices are drawn as boxes."""
    kernel = set(kernel_vertices)
    quoted = {v: _quote(label) for v, label in graph._label.items()}
    lines = [f"digraph {name} {{"]
    lines += [f"  {quoted[v]} [shape={'box' if v in kernel else 'ellipse'}];"
              for v in graph.vertices]
    lines += [f"  {quoted[a]} -> {quoted[b]};"
              for a, b in graph._sorted_edges]
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_text(graph: DiGraph) -> str:
    """One 'a -> b' line per edge, sorted by vertex index pair."""
    label = graph._label
    lines = [f"{label[a]} -> {label[b]}" for a, b in graph._sorted_edges]
    return "\n".join(lines) + ("\n" if lines else "")
