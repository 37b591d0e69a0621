"""The directed graph attached to a multiplicative basis, and the graph
predicates the structure theory runs on.

Edge rule: every nonzero product [v_i, v_j] = c * v_k contributes the two
edges (v_i, v_k) and (v_j, v_k); both factors point at the product.
Coefficients are discarded, duplicates collapse, loops are kept.

A vertex is a basis index, so everything derived from a DiGraph is an
array indexed by vertex: a list of successor rows, int lists for the
index, low-link and component-id bookkeeping of the searches, a bytearray
of visited vertices.  An index that is not a vertex (a gap in an induced
subgraph) gets an empty row.  A DiGraph is immutable, so the successor
rows and the strong components are derived at most once per graph, on
first use.  Each row is sorted once, O(E log d) for out-degree d, and
the edge order is the walk over the vertices and their rows in order:
no O(E log E) sort of edge pairs and no stored tuple per edge.  Every
predicate and emitter then runs in O(V + E).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field as dc_field
from itertools import compress
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
    not fields, so equality and hashing see only the graph itself.  They
    are arrays with one entry per index up to the largest vertex."""

    vertices: tuple  # strictly increasing non-negative vertex indices
    labels: tuple    # labels[t] names vertices[t]
    edges: frozenset  # pairs (a, b) of vertex indices
    _label: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        vs = tuple(self.vertices)
        if not all(type(v) is int for v in vs) or (vs and vs[0] < 0):
            raise ValueError("vertices must be non-negative basis indices")
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
    def _successors(self) -> list:
        """Row v lists the out-neighbours of vertex v in increasing order,
        for v in range(vertices[-1] + 1); an index that is not a vertex
        has an empty row.  Walking the vertices in order and each row in
        order gives the edges in sorted order."""
        vertices = self.vertices
        succ = [[] for _ in range(vertices[-1] + 1)] if vertices else []
        for a, b in self.edges:
            succ[a].append(b)
        for row in succ:
            row.sort()
        return succ

    @_derived
    def _strong(self) -> tuple:
        """(the strong-component partition, its groups in the order
        Tarjan's search completes them: reverse topological order)."""
        return _tarjan(self)

    def edge_labels(self) -> list:
        """[label_a, label_b] for each edge, in sorted edge order."""
        label, succ = self._label, self._successors
        return [[label[a], label[b]] for a in self.vertices for b in succ[a]]


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
    """Vertex-induced subgraph on the kernel part or the complement part.

    Only the successor rows of the kept vertices are read; the filtered
    rows, still sorted, become the subgraph's own successor rows."""
    if part == "kernel":
        keep = set(split.kernel)
    elif part == "complement":
        keep = set(split.complement)
    else:
        raise ValueError(f"part must be 'kernel' or 'complement', got {part!r}")
    vertices = tuple(filter(keep.__contains__, graph.vertices))
    parent = graph._successors
    succ = [()] * (vertices[-1] + 1 if vertices else 0)
    for a in vertices:
        succ[a] = [b for b in parent[a] if b in keep]
    sub = DiGraph._trusted(
        vertices, tuple(map(graph._label.__getitem__, vertices)),
        frozenset([(a, b) for a in vertices for b in succ[a]]))
    sub.__dict__["_successors"] = succ  # where _derived would store it
    return sub


@dataclass(frozen=True)
class ComponentPartition:
    """Assignment of each vertex to a component; ids are deterministic,
    each component is named by its smallest vertex index."""

    kind: Literal["undirected", "strong"]
    assignment: tuple  # sorted tuple of (vertex, component_id)
    _ids: dict = dc_field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "_ids", dict(self.assignment))

    def classes(self) -> tuple:
        groups: dict = {}
        for vertex, cid in self.assignment:
            groups.setdefault(cid, []).append(vertex)
        return tuple(tuple(sorted(groups[c])) for c in sorted(groups))

    @property
    def count(self) -> int:
        return len({cid for _v, cid in self.assignment})


def undirected_components(graph: DiGraph) -> ComponentPartition:
    """Connected components after forgetting edge directions: one
    depth-first search over neighbour rows, O(V + E).  Roots are taken in
    increasing order, so each component is named by its root."""
    vertices = graph.vertices
    neighbours = [list(row) for row in graph._successors]
    for a, b in graph.edges:
        neighbours[b].append(a)
    component = [-1] * len(neighbours)
    for root in vertices:
        if component[root] >= 0:
            continue
        component[root] = root
        todo = [root]
        while todo:
            for w in neighbours[todo.pop()]:
                if component[w] < 0:
                    component[w] = root
                    todo.append(w)
    return ComponentPartition(
        "undirected", tuple(zip(vertices, map(component.__getitem__,
                                              vertices))))


def _tarjan(graph: DiGraph) -> tuple:
    """Strongly connected components, iterative Tarjan, O(V + E).

    Returns the partition and the groups in the order they are completed,
    which is reverse topological: every group is completed after each
    group it has an edge into.  A vertex whose group is completed gets
    the index DONE, which no low-link reaches, so the on-stack test is
    one comparison."""
    vertices, succ = graph.vertices, graph._successors
    DONE = len(succ)  # larger than every search index
    index = [-1] * DONE  # -1: not yet visited
    low = [0] * DONE
    component = [0] * DONE
    stack: list = []
    groups: list = []
    counter = 0
    for root in vertices:
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        work = [(root, iter(succ[root]))]
        while work:
            v, it = work[-1]
            for w in it:
                iw = index[w]
                if iw < 0:
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    work.append((w, iter(succ[w])))
                    break
                if iw < low[v]:
                    low[v] = iw
            else:
                work.pop()
                lv = low[v]
                if work:
                    parent_v = work[-1][0]
                    if lv < low[parent_v]:
                        low[parent_v] = lv
                if lv == index[v]:
                    at = len(stack) - 1
                    while stack[at] != v:
                        at -= 1
                    group = stack[at:]
                    del stack[at:]
                    cid = min(group)
                    for w in group:
                        index[w] = DONE
                        component[w] = cid
                    groups.append(group)
    partition = ComponentPartition(
        "strong", tuple(zip(vertices, map(component.__getitem__, vertices))))
    return partition, groups


def strong_components(graph: DiGraph) -> ComponentPartition:
    """Strongly connected components (computed once per graph)."""
    return graph._strong[0]


def _reach_masks(graph: DiGraph) -> list:
    """For every vertex v, the int bitmask of the vertices reachable from
    v by a directed path, v included, as a list indexed by vertex (0 at
    an index that is not a vertex).

    The strong groups are visited sinks first, so the masks of every
    group a group has an edge into are already known: its mask is its
    own bits ORed with those.  Inside the group the masks are still 0,
    so ORing them in changes nothing.  O(V + E) big-int ORs."""
    succ = graph._successors
    reach = [0] * len(succ)
    for group in graph._strong[1]:
        mask = 0
        for v in group:
            mask |= 1 << v
        for v in group:
            for w in succ[v]:
                mask |= reach[w]
        for v in group:
            reach[v] = mask
    return reach


def reachable_from(graph: DiGraph, v: int) -> tuple:
    """Vertices reachable from v by a directed path; v itself counts
    (the empty path)."""
    if v not in graph._label:  # the rows also accept -1 and gap indices
        raise UnknownVertexError(f"vertex {v} not in graph")
    succ = graph._successors
    seen = bytearray(len(succ))
    seen[v] = 1
    queue = deque([v])
    while queue:
        for w in succ[queue.popleft()]:
            if not seen[w]:
                seen[w] = 1
                queue.append(w)
    return tuple(compress(range(len(seen)), seen))


def is_weakly_symmetric(graph: DiGraph):
    """True iff both endpoints of every edge lie in one strongly connected
    component; returns (flag, witness_edge_or_None).  The witness is the
    first offending edge in sorted order."""
    ids = strong_components(graph)._ids
    succ = graph._successors
    for a in graph.vertices:
        cid = ids[a]
        for b in succ[a]:
            if ids[b] != cid:
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
    succ = graph._successors
    quoted = {v: _quote(label) for v, label in graph._label.items()}
    lines = [f"digraph {name} {{"]
    lines += [f"  {quoted[v]} [shape={'box' if v in kernel else 'ellipse'}];"
              for v in graph.vertices]
    lines += [f"  {quoted[a]} -> {quoted[b]};"
              for a in graph.vertices for b in succ[a]]
    lines.append("}")
    return "\n".join(lines) + "\n"


def edge_list_text(graph: DiGraph) -> str:
    """One 'a -> b' line per edge, sorted by vertex index pair."""
    label = graph._label
    succ = graph._successors
    lines = [f"{label[a]} -> {label[b]}" for a in graph.vertices
             for b in succ[a]]
    return "\n".join(lines) + ("\n" if lines else "")
