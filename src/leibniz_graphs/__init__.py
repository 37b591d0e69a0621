"""Exact analysis of finite-dimensional Leibniz algebras through their
associated directed graphs.

The package works over exact fields only (the rationals, or GF(p)): it
validates the Leibniz identity and multiplicative bases, computes the
kernel ideal generated by squares, builds the digraph in which both
factors of every nonzero basis product point at the product, and reads
structure off that graph -- orthogonal ideal decompositions from
undirected components, weak division and minimality from strong
connectivity -- always cross-checked against direct linear-algebra
computations.
"""

from .algebra import (
    BasisSplit,
    LeibnizAlgebra,
    MultiplicativeTable,
    check_leibniz,
    ideal_closure,
    leibniz_kernel,
    product,
    to_multiplicative,
    validate_split,
)
from .corpus import (
    CorpusEntry,
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
from .equivalence import (
    LinearMap,
    change_basis,
    decomposition_equivalence,
    induced_graph_isomorphism,
    is_automorphism,
    maps_basis_to_basis,
)
from .errors import (
    BadBijectionError,
    BadParamsError,
    DimensionMismatchError,
    DimensionTooLargeError,
    FieldCharUnsupportedError,
    FieldMismatchError,
    InputDocumentError,
    InternalInvariantViolation,
    InvalidSplitError,
    LeibnizGraphsError,
    NotLeibnizError,
    NotMonomialError,
    ShapeViolationError,
    SingularMapError,
    UnknownExampleError,
    UnknownVertexError,
)
from .graphs import (
    ComponentPartition,
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
from .scalars import FieldSpec, Subspace, rref
from .structure import (
    Decomposition,
    MinimalityVerdict,
    analysis_report,
    check_minimality,
    check_weak_division,
    cross_validate,
    decompose,
    enumerate_basis_ideals,
    generated_ideal,
    is_ideal,
    restrict_to_indices,
    weak_division_json,
)

__version__ = "0.1.0"
