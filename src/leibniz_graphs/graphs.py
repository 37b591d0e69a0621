"""The directed graph attached to a multiplicative basis, and the graph
predicates the structure theory runs on.

Edge rule: every nonzero product [v_i, v_j] = c * v_k contributes the two
edges (v_i, v_k) and (v_j, v_k); both factors point at the product.
Coefficients are discarded, duplicates collapse, loops are kept.
"""

from __future__ import annotations

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


@dataclass(frozen=True)
class DiGraph:
    """A digraph on basis indices.  Vertices keep their original algebra
    indices even in induced subgraphs, so labels stay aligned."""

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
        object.__setattr__(self, "vertices", vs)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "edges", frozenset(self.edges))
        object.__setattr__(self, "_label", dict(zip(vs, self.labels)))

    @property
    def n(self) -> int:
        return len(self.vertices)

    def label_of(self, v: int) -> str:
        try:
            return self._label[v]
        except KeyError:
            raise UnknownVertexError(f"vertex {v} not in graph") from None

    def sorted_edges(self) -> list:
        return sorted(self.edges)

    def adjacency(self) -> dict:
        adj = {v: [] for v in self.vertices}
        for a, b in self.sorted_edges():
            adj[a].append(b)
        return adj


def build_graph(table: MultiplicativeTable, split: BasisSplit) -> DiGraph:
    """The digraph of a multiplicative basis: factors point at products."""
    if split.dim != table.dim:
        raise ValueError("split and table disagree on dimension")
    edges = set()
    for (i, j), (k, _coeff) in table.entries:
        edges.add((i, k))
        edges.add((j, k))
    vertices = tuple(range(table.dim))
    return DiGraph(vertices, table.labels, frozenset(edges))


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
    return DiGraph(vertices, labels, edges)


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


def _canonical_partition(kind, groups: Iterable) -> ComponentPartition:
    assignment = []
    for group in groups:
        cid = min(group)
        for v in group:
            assignment.append((v, cid))
    return ComponentPartition(kind, tuple(sorted(assignment)))


def undirected_components(graph: DiGraph) -> ComponentPartition:
    """Connected components after forgetting edge directions (union-find)."""
    parent = {v: v for v in graph.vertices}

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:  # path compression
            parent[x], x = root, parent[x]
        return root

    for a, b in graph.edges:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    groups: dict = {}
    for v in graph.vertices:
        groups.setdefault(find(v), []).append(v)
    return _canonical_partition("undirected", groups.values())


def strong_components(graph: DiGraph) -> ComponentPartition:
    """Strongly connected components, iterative Tarjan."""
    adj = graph.adjacency()
    index: dict = {}
    low: dict = {}
    on_stack: set = set()
    stack: list = []
    groups: list = []
    counter = 0
    for root in graph.vertices:
        if root in index:
            continue
        work = [(root, iter(adj[root]))]
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            v, it = work[-1]
            pushed = False
            for w in it:
                if w not in index:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack.add(w)
                    work.append((w, iter(adj[w])))
                    pushed = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if pushed:
                continue
            work.pop()
            if work:
                parent_v = work[-1][0]
                low[parent_v] = min(low[parent_v], low[v])
            if low[v] == index[v]:
                group = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    group.append(w)
                    if w == v:
                        break
                groups.append(group)
    return _canonical_partition("strong", groups)


def reachable_from(graph: DiGraph, v: int) -> tuple:
    """Vertices reachable from v by a directed path; v itself counts
    (the empty path)."""
    if v not in set(graph.vertices):
        raise UnknownVertexError(f"vertex {v} not in graph")
    adj = graph.adjacency()
    seen = {v}
    queue = [v]
    while queue:
        cur = queue.pop(0)
        for w in adj[cur]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return tuple(sorted(seen))


def is_weakly_symmetric(graph: DiGraph):
    """True iff both endpoints of every edge lie in one strongly connected
    component; returns (flag, witness_edge_or_None).  The witness is the
    first offending edge in sorted order."""
    part = strong_components(graph)
    ids = part.as_dict()
    for a, b in graph.sorted_edges():
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
    lines = [f"digraph {name} {{"]
    for v, label in zip(graph.vertices, graph.labels):
        shape = "box" if v in kernel else "ellipse"
        lines.append(f"  {_quote(label)} [shape={shape}];")
    for a, b in graph.sorted_edges():
        lines.append(f"  {_quote(graph.label_of(a))} -> "
                     f"{_quote(graph.label_of(b))};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_text(graph: DiGraph) -> str:
    """One 'a -> b' line per edge, sorted by vertex index pair."""
    lines = [f"{graph.label_of(a)} -> {graph.label_of(b)}"
             for a, b in graph.sorted_edges()]
    return "\n".join(lines) + ("\n" if lines else "")
