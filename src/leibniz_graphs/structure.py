"""Structure theory: ideals, component decomposition, weak division and
minimality, each decided twice (graph route and linear-algebra route)
with a hard failure if the routes ever disagree.

Terminology.  With a multiplicative basis split into kernel part K and
complement part J:

* weak division holds when every factor of a nonzero product that stays
  inside one part lies in the ideal generated by that product;
* the algebra is minimal when its only nonzero ideals admitting a
  multiplicative basis inside the given one are the kernel and the whole
  algebra.  Such ideals are exactly the spans of basis subsets: a basis
  contained in the algebra's basis spans a coordinate subspace, and a
  coordinate subspace that is an ideal multiplies its basis monomially.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import chain
from typing import Optional

from .algebra import (
    BasisSplit,
    LeibnizAlgebra,
    MultiplicativeTable,
    basis_brackets,
    ideal_closure,
    to_multiplicative,
)
from .errors import (
    DimensionMismatchError,
    DimensionTooLargeError,
    InternalInvariantViolation,
)
from .graphs import (
    DiGraph,
    _derived,
    _reach_masks,
    build_graph,
    induced_subgraph,
    is_strongly_connected,
    is_weakly_symmetric,
    undirected_components,
)
from .jsonio import field_to_json, scalar_to_json
from .scalars import Subspace

__all__ = [
    "Decomposition",
    "DecompositionPart",
    "MinimalityVerdict",
    "analysis_report",
    "check_minimality",
    "check_weak_division",
    "decompose",
    "enumerate_basis_ideals",
    "generated_ideal",
    "is_ideal",
    "restrict_to_indices",
    "weak_division_json",
]

DEFAULT_ENUM_BOUND = 16  # largest dimension the oracle lists by default


def is_ideal(algebra: LeibnizAlgebra, subspace: Subspace) -> bool:
    """Two-sided ideal test: [s, v_i] and [v_i, s] stay in the subspace
    for every spanning row s and every basis vector v_i.

    When every row is a unit row, the subspace is the span of its pivot
    set, and it is an ideal iff every product with a factor in that set
    has its support inside the set: a set test per stored product, with
    no field arithmetic (``_spans_ideal``).  Other subspaces reduce each
    bracket against their rows."""
    if subspace.ambient_dim != algebra.dim:
        raise DimensionMismatchError("subspace ambient dim != algebra dim")
    rows = subspace.sparse_rows()
    if all(len(s) == 1 for s in rows):
        return _spans_ideal(algebra, set(subspace.pivots))
    return all(subspace.contains_sparse(v)
               for s in rows
               for v in basis_brackets(algebra, s))


def _spans_ideal(algebra: LeibnizAlgebra, members: set) -> bool:
    """Whether the span of the basis vectors in ``members`` is an ideal:
    every product with a factor among them has its support among them."""
    left, right = algebra._left, algebra._right   # the products by factor
    return all(coords.keys() <= members
               for m in members
               for row in (left[m], right[m])
               for coords in row.values())


def generated_ideal(algebra: LeibnizAlgebra, vector) -> Subspace:
    """The two-sided ideal generated by one vector (closure oracle)."""
    if len(vector) != algebra.dim:
        raise DimensionMismatchError("generator has wrong length")
    return ideal_closure(algebra, [tuple(vector)])


@dataclass(frozen=True)
class DecompositionPart:
    component_id: int
    vertices: tuple     # sorted basis indices of the component
    labels: tuple
    subspace: Subspace

    @property
    def dim(self) -> int:
        return len(self.vertices)


@dataclass(frozen=True)
class Decomposition:
    parts: tuple  # DecompositionPart, ordered by component id

    @property
    def count(self) -> int:
        return len(self.parts)


def decompose(algebra: LeibnizAlgebra, table: MultiplicativeTable,
              split: BasisSplit, graph: Optional[DiGraph] = None
              ) -> Decomposition:
    """Split the algebra into the ideals spanned by the undirected
    components of its graph.

    Each part is re-verified to be an ideal, and orthogonality is checked
    exhaustively: every cross-component basis product must vanish.  A
    failure of either check contradicts the component theorem and raises
    InternalInvariantViolation.
    """
    return _analysis_of(algebra, split, table, graph).decomposition


def restrict_to_indices(algebra: LeibnizAlgebra, split: BasisSplit,
                        indices) -> tuple:
    """The subalgebra on a component's basis vectors, as a fresh algebra
    with the inherited split.  Only valid when the span of ``indices`` is
    closed under products with itself."""
    idx = tuple(sorted(indices))
    pos = {v: t for t, v in enumerate(idx)}
    m = len(idx)
    products = {}
    for (a, b), coords in algebra.products.items():
        if a in pos and b in pos:
            if any(k not in pos for k in coords):
                raise ValueError(
                    f"product ({a},{b}) leaves the index set; "
                    "restriction is not a subalgebra"
                )
            products[(pos[a], pos[b])] = {pos[k]: c
                                          for k, c in coords.items()}
    labels = tuple(algebra.labels[v] for v in idx)
    sub = LeibnizAlgebra(algebra.field, labels, products, check=True)
    kernel = set(split.kernel)
    sub_split = BasisSplit.of(m, (pos[v] for v in idx if v in kernel))
    return sub, sub_split


class _GeneratorIdeals:
    """The ideal of each basis vector v_v, held as the int bitmask of the
    basis vectors it contains, closed on first request and kept.

    On a multiplicative basis each bracket of a basis vector with a basis
    vector is a multiple of one basis vector, so the ideal of v_v is the
    span of the basis vectors reached from v by repeatedly passing from a
    factor to the output coordinate of its products (the algebra's row
    indexes ``_left`` and ``_right``).  If w lies in I(v), then I(w) lies in I(v):
    a closure that lands on a w whose mask is stored ORs that mask in and
    does not walk past w.  Generators are closed in the post-order of a
    depth-first search over the same bracket outputs, so each output is
    closed before the generator that reaches it, except on a cycle through
    that generator, which is simply expanded.  A mask is stored only once
    its closure is complete.

    The basis must be multiplicative, as a MultiplicativeTable of the
    algebra proves; the analysis that holds the masks holds one.  The
    algebra's row indexes are kept, not the algebra, so that the analysis
    an algebra holds does not refer back to it strongly.
    """

    def __init__(self, algebra: LeibnizAlgebra):
        self.left, self.right = algebra._left, algebra._right
        self.masks: dict = {}

    def mask(self, v: int) -> int:
        if v not in self.masks:
            self._close_in_post_order(v)
        return self.masks[v]

    def _outputs(self, m: int):
        # every output coordinate of [v_m, v_i] and [v_i, v_m]
        return (w for coords in chain(self.left[m].values(),
                                      self.right[m].values())
                for w in coords)

    def _close_in_post_order(self, root: int) -> None:
        masks = self.masks
        entered = {root}
        path = [(root, self._outputs(root))]
        while path:
            v, outputs = path[-1]
            for w in outputs:
                if w not in entered and w not in masks:
                    entered.add(w)
                    path.append((w, self._outputs(w)))
                    break
            else:
                path.pop()
                masks[v] = self._close(v)

    def _close(self, v: int) -> int:
        masks = self.masks
        mask = 1 << v
        todo = [v]
        while todo:
            for w in self._outputs(todo.pop()):
                if not mask >> w & 1:
                    known = masks.get(w)
                    if known is None:
                        mask |= 1 << w
                        todo.append(w)
                    else:
                        mask |= known
        return mask


def check_weak_division(algebra: LeibnizAlgebra, table: MultiplicativeTable,
                        split: BasisSplit):
    """Decide weak division by the ideal-closure oracle.

    For every table entry [v_i, v_j] = c * v_k:
      * i and k in the kernel part: v_i must lie in the ideal of v_k;
      * i, j and k all in the complement part: both v_i and v_j must lie
        in the ideal of v_k.
    Returns (holds, violations); each violation is ((i, j), k, missing),
    in table order.

    The ideal of each v_k is closed once, as a bitmask of basis vectors
    (``_GeneratorIdeals``), and each membership is one bit test.
    """
    holds, violations = _analysis_of(algebra, split, table).weak_division
    return holds, list(violations)   # the held list stays unchanged


def enumerate_basis_ideals(algebra: LeibnizAlgebra,
                           bound: Optional[int] = None) -> list:
    """All subsets S of the basis whose span is a two-sided ideal, as
    sorted index tuples in increasing bitmask order (the empty set first,
    the full basis last).  Refuses dimensions above the bound.

    The span of S is an ideal exactly when S holds every output
    coordinate of every nonzero product with a factor in S, that is, when
    S is closed under the successor relation that sends both factors of a
    nonzero product to each of its output coordinates.  The closed sets
    are the unions of the per-vertex closures, so they are listed
    directly and the cost grows with the number of basis ideals rather
    than with 2^n.  The successors are read from ``algebra.products``
    alone, as bitmasks, sharing no code with the graph route, and every
    listed set is confirmed by the coordinate ideal test of is_ideal
    (``_spans_ideal``); a set that fails raises
    InternalInvariantViolation.
    """
    if bound is None:
        bound = DEFAULT_ENUM_BOUND
    n = algebra.dim
    if n > bound:
        raise DimensionTooLargeError(
            f"dimension {n} exceeds enumeration bound {bound}"
        )
    successors = [0] * n   # v -> mask of the outputs of v's products
    for (i, j), coords in algebra.products.items():
        outputs = sum(1 << k for k in coords)
        successors[i] |= outputs
        successors[j] |= outputs
    masks = {0}
    for v in range(n):
        closure = new = 1 << v
        while new:
            reached = 0
            for k in _bits(new):
                reached |= successors[k]
            new = reached & ~closure
            closure |= new
        masks.update([mask | closure for mask in masks])
    found = []
    for mask in sorted(masks):
        subset = tuple(_bits(mask))
        if not _spans_ideal(algebra, set(subset)):
            raise InternalInvariantViolation(
                f"closed basis subset {subset} does not span an ideal"
            )
        found.append(subset)
    return found


def _bits(mask: int):
    """The positions of the set bits of ``mask``, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class MinimalityVerdict:
    """Outcome of the minimality decision with every route on record.

    via_graph:    both part subgraphs strongly connected.
    via_division: weak division plus both part subgraphs connected.
    via_oracle:   subset enumeration, when it ran (None otherwise).
    """

    minimal: bool
    strong_kernel: bool
    strong_complement: bool
    weak_division: bool
    connected_kernel: bool
    connected_complement: bool
    oracle_minimal: Optional[bool] = None

    @property
    def via_graph(self) -> bool:
        return self.strong_kernel and self.strong_complement

    @property
    def via_division(self) -> bool:
        return (self.weak_division and self.connected_kernel
                and self.connected_complement)


def _settings(dim: int, oracle: Optional[bool],
              bound: Optional[int]) -> tuple:
    """check_minimality's (oracle, bound), with their defaults resolved."""
    bound = DEFAULT_ENUM_BOUND if bound is None else bound
    return (dim <= bound if oracle is None else oracle), bound


class _Analysis:
    """Every fact that the decisions and reports read about one algebra
    and basis split, each derived on first read and kept: every reader of
    one analysis computes each fact at most once.  The library's readers
    share the analysis their algebra holds (``_analysis_of``); a CLI
    command builds one per document.  ``table`` and ``graph`` are the
    split's multiplicative table and digraph when the caller holds them
    already; ``oracle`` and ``bound`` are check_minimality's.  The
    generator masks, once closed, serve both weak division and the
    reachability comparison.

    The algebra is referred to weakly: the algebra holds the analysis, and
    a strong reference back would leave the pair to the cyclic garbage
    collector.  Whoever reads an analysis keeps its algebra alive.
    """

    def __init__(self, algebra: LeibnizAlgebra, split: BasisSplit,
                 table: Optional[MultiplicativeTable] = None,
                 graph: Optional[DiGraph] = None,
                 oracle: Optional[bool] = None, bound: Optional[int] = None):
        self._algebra = weakref.ref(algebra)
        self.split = split
        self.oracle, self.bound = _settings(algebra.dim, oracle, bound)
        self.generators = _GeneratorIdeals(algebra)
        if table is not None:
            self.table = table  # where _derived would store it
        if graph is not None:
            self.graph = graph

    @property
    def algebra(self) -> LeibnizAlgebra:
        return self._algebra()

    @_derived
    def table(self) -> MultiplicativeTable:
        return to_multiplicative(self.algebra, self.split, validate=False)

    @_derived
    def graph(self) -> DiGraph:
        return build_graph(self.table, self.split)

    @_derived
    def sub_k(self) -> DiGraph:
        return induced_subgraph(self.graph, "kernel", self.split)

    @_derived
    def sub_j(self) -> DiGraph:
        return induced_subgraph(self.graph, "complement", self.split)

    @_derived
    def weak_division(self) -> tuple:
        """(holds, violations), as check_weak_division returns them."""
        kernel = set(self.split.kernel)
        violations = []
        for (i, j), (k, _c) in self.table.entries:
            if i in kernel and k in kernel:
                members = (i,)
            elif i not in kernel and j not in kernel and k not in kernel:
                members = (i, j)
            else:
                continue
            mask = self.generators.mask(k)
            violations += [((i, j), k, m)
                           for m in members if not mask >> m & 1]
        return (not violations), violations

    @_derived
    def components(self) -> tuple:
        """The vertex sets of the graph's undirected components."""
        return undirected_components(self.graph).classes()

    @_derived
    def weak_symmetry(self) -> tuple:
        """is_weakly_symmetric of the kernel and the complement subgraph."""
        return is_weakly_symmetric(self.sub_k), is_weakly_symmetric(self.sub_j)

    @_derived
    def ideals(self) -> Optional[list]:
        """The basis ideals, or None when the oracle does not run."""
        if self.oracle:
            return enumerate_basis_ideals(self.algebra, self.bound)
        return None

    @_derived
    def decomposition(self) -> Decomposition:
        """As decompose documents it."""
        algebra = self.algebra
        parts = []
        for group in self.components:
            subspace = Subspace.from_basis_indices(algebra.field,
                                                   algebra.dim, group)
            if not is_ideal(algebra, subspace):
                raise InternalInvariantViolation(
                    f"graph component {group} does not span an ideal"
                )
            labels = tuple(algebra.labels[v] for v in group)
            parts.append(DecompositionPart(min(group), group, labels,
                                           subspace))
        # Every cross-component basis product must vanish; report the first
        # offending pair in part order.
        part_of = {v: t for t, part in enumerate(parts) for v in part.vertices}
        crossing = [min((part_of[i], part_of[j], i, j),
                        (part_of[j], part_of[i], j, i))
                    for i, j in algebra.products if part_of[i] != part_of[j]]
        if crossing:
            a_idx, b_idx, i, j = min(crossing)
            raise InternalInvariantViolation(
                f"components {parts[a_idx].vertices} and "
                f"{parts[b_idx].vertices} are not orthogonal at ({i},{j})"
            )
        return Decomposition(tuple(parts))  # components come in id order

    @_derived
    def verdict(self) -> MinimalityVerdict:
        """Minimality by every route that runs; all of them must agree."""
        strong_k = is_strongly_connected(self.sub_k)
        strong_j = is_strongly_connected(self.sub_j)
        connected_k = undirected_components(self.sub_k).count <= 1
        connected_j = undirected_components(self.sub_j).count <= 1
        oracle_result = None
        if self.ideals is not None:  # the proper nonzero ones: the kernel
            full = tuple(range(self.algebra.dim))
            proper = [s for s in self.ideals if s and s != full]
            kernel = self.split.kernel
            oracle_result = proper == ([kernel] if kernel else [])
        verdict = MinimalityVerdict(
            minimal=strong_k and strong_j,
            strong_kernel=strong_k,
            strong_complement=strong_j,
            weak_division=self.weak_division[0],
            connected_kernel=connected_k,
            connected_complement=connected_j,
            oracle_minimal=oracle_result,
        )
        if verdict.via_graph != verdict.via_division:
            raise InternalInvariantViolation(
                f"minimality routes disagree: graph={verdict.via_graph} "
                f"division={verdict.via_division}"
            )
        if oracle_result is not None and oracle_result != verdict.via_graph:
            raise InternalInvariantViolation(
                f"minimality oracle disagrees with graph route: "
                f"oracle={oracle_result} graph={verdict.via_graph}"
            )
        return verdict

    def cross_validation(self) -> dict:
        """The checks and counters of cross_validate."""
        labels = self.algebra.labels
        pairs = 0
        for part in (self.sub_k, self.sub_j):
            part_mask = sum(1 << v for v in part.vertices)
            reach = _reach_masks(part)
            for v in part.vertices:
                # the part's vertices whose unit vectors lie in the ideal
                inside = self.generators.mask(v) & part_mask
                if reach[v] != inside:
                    differ = reach[v] ^ inside
                    w = (differ & -differ).bit_length() - 1
                    raise InternalInvariantViolation(
                        f"reachability and ideal closure disagree on "
                        f"({labels[v]}, {labels[w]})"
                    )
            pairs += len(part.vertices) ** 2
        verdict = self.verdict
        (sym_k, _wk), (sym_j, _wj) = self.weak_symmetry
        if verdict.weak_division != (sym_k and sym_j):
            raise InternalInvariantViolation(
                f"weak division ({verdict.weak_division}) disagrees with "
                f"part weak symmetry ({sym_k}, {sym_j})"
            )
        return {
            "reachability_pairs": pairs,
            "weak_division": verdict.weak_division,
            "minimal": verdict.minimal,
            "oracle_ran": verdict.oracle_minimal is not None,
        }

    def report(self) -> dict:
        """The dictionary that analysis_report returns."""
        algebra, split = self.algebra, self.split
        labels = algebra.labels
        verdict = self.verdict

        def subgraph_block(g: DiGraph, symmetry: tuple, connected: bool,
                           strong: bool) -> dict:
            symmetric, witness = symmetry
            return {
                "vertices": list(g.labels),
                "edge_count": len(g.edges),
                "edges": g.edge_labels(),
                "connected": connected,
                "weakly_symmetric": symmetric,
                "weak_symmetry_witness": (
                    None if witness is None
                    else [g.label_of(witness[0]), g.label_of(witness[1])]
                ),
                "strongly_connected": strong,
            }

        flags = []
        if not split.kernel:
            flags.append("empty-kernel-part")
        if algebra.dim <= 1:
            flags.append("degenerate-dimension")

        sym_k, sym_j = self.weak_symmetry
        return {
            "field": field_to_json(algebra.field),
            "labels": list(labels),
            "dimension": algebra.dim,
            "kernel": [labels[i] for i in split.kernel],
            "split": {
                "kernel": [labels[i] for i in split.kernel],
                "complement": [labels[i] for i in split.complement],
            },
            "table_entries": len(self.table.entries),
            "graph": {
                "edge_count": len(self.graph.edges),
                "edges": self.graph.edge_labels(),
            },
            "subgraphs": {
                "kernel": subgraph_block(self.sub_k, sym_k,
                                         verdict.connected_kernel,
                                         verdict.strong_kernel),
                "complement": subgraph_block(self.sub_j, sym_j,
                                             verdict.connected_complement,
                                             verdict.strong_complement),
            },
            "components": [
                [labels[v] for v in group] for group in self.components
            ],
            "weak_division": weak_division_json(algebra, self.table,
                                                *self.weak_division),
            "minimality": {
                "minimal": verdict.minimal,
                "strongly_connected_kernel": verdict.strong_kernel,
                "strongly_connected_complement": verdict.strong_complement,
                "weak_division": verdict.weak_division,
                "connected_kernel": verdict.connected_kernel,
                "connected_complement": verdict.connected_complement,
                "oracle": verdict.oracle_minimal,
            },
            "oracle_ideals": None if self.ideals is None else [
                [labels[i] for i in subset] for subset in self.ideals],
            "flags": flags,
        }


def _analysis_of(algebra: LeibnizAlgebra, split: BasisSplit,
                 table: Optional[MultiplicativeTable] = None,
                 graph: Optional[DiGraph] = None,
                 oracle: Optional[bool] = None,
                 bound: Optional[int] = None) -> _Analysis:
    """The analysis that the library's readers answer from.

    The algebra holds the last analysis a reader derived of it, and that
    one answers when the split is equal, the resolved oracle and bound are
    equal, and each table or graph the caller passes is the one it derived
    or equal to it.  Otherwise a new analysis, seeded with the caller's
    table and graph, is built and held in its place.
    """
    settings = _settings(algebra.dim, oracle, bound)
    facts = algebra._analysis
    if (facts is not None and facts.split == split
            and (facts.oracle, facts.bound) == settings
            and _matches(facts, "table", table)
            and _matches(facts, "graph", graph)):
        return facts
    facts = _Analysis(algebra, split, table, graph, *settings)
    algebra._analysis = facts
    return facts


def _matches(facts: _Analysis, name: str, given) -> bool:
    """Whether a table or graph a caller passes is absent, or is the fact
    ``name`` that ``facts`` holds, or equal to it."""
    return given is None or given == vars(facts).get(name)


def check_minimality(algebra: LeibnizAlgebra, table: MultiplicativeTable,
                     split: BasisSplit, *, oracle: Optional[bool] = None,
                     bound: Optional[int] = None) -> MinimalityVerdict:
    """Decide minimality by the two graph routes, optionally also by the
    enumeration oracle (oracle=None runs it whenever the dimension is at
    most the bound, DEFAULT_ENUM_BOUND unless given), and require all
    computed routes to agree."""
    return _analysis_of(algebra, split, table, oracle=oracle,
                        bound=bound).verdict


def cross_validate(algebra: LeibnizAlgebra, split: BasisSplit, *,
                   oracle: Optional[bool] = None,
                   bound: Optional[int] = None) -> dict:
    """Run every dual-route consistency check on one instance and raise
    InternalInvariantViolation on the first mismatch.

    Checks: agreement of all minimality routes; same-part graph
    reachability against ideal-closure membership (both parts, all
    pairs), where the reach mask of each vertex in its part subgraph
    (``_reach_masks``, from the graph side only) must equal its ideal's
    mask restricted to the part; weak division against weak symmetry of
    both part subgraphs.  Returns counters for reporting.  The ideal of
    each basis vector is closed once, as a bitmask of basis vectors; the
    masks serve both checks and are kept with the analysis the algebra
    holds, so while the algebra lives (n^2 bits for dimension n).  The
    reach masks of one part subgraph at a time add at most n^2 bits more
    during the call.  Every call repeats the checks, also on facts the
    algebra's analysis holds already.
    """
    return _analysis_of(algebra, split, oracle=oracle,
                        bound=bound).cross_validation()


def weak_division_json(algebra: LeibnizAlgebra, table: MultiplicativeTable,
                       holds: bool, violations) -> dict:
    """The JSON form of a check_weak_division result: each violation
    names its product and the factor missing from the product's ideal."""
    labels = algebra.labels
    return {
        "holds": holds,
        "violations": [
            {
                "product": {
                    "l": labels[i], "r": labels[j], "out": labels[k],
                    "c": scalar_to_json(table.get(i, j)[1]),
                },
                "missing_member": labels[member],
            }
            for (i, j), k, member in violations
        ],
    }


def analysis_report(algebra: LeibnizAlgebra, split: BasisSplit, *,
                    oracle: Optional[bool] = None,
                    bound: Optional[int] = None) -> dict:
    """One JSON-ready dictionary with every headline fact about the
    algebra.  Key order is fixed and arrays are sorted, so serialization
    is byte-stable."""
    return _analysis_of(algebra, split, oracle=oracle, bound=bound).report()
