"""Named example algebras, structure-preserving transforms, and a seeded
random generator of small multiplicative-basis Leibniz algebras.

Every builder returns (algebra, split) with the Leibniz identity verified
at construction and the declared kernel part re-validated against the
computed kernel ideal.  Integer structure constants that vanish in the
requested field are rejected up front, so each example's characteristic
exclusions fall out of its coefficients rather than a hand-written list.
"""

from __future__ import annotations

import inspect
import random
from dataclasses import dataclass, field as dc_field
from typing import Optional, Sequence

from .algebra import (
    BasisSplit,
    LeibnizAlgebra,
    check_leibniz,
    validate_split,
)
from .errors import (
    BadParamsError,
    FieldCharUnsupportedError,
    InternalInvariantViolation,
    UnknownExampleError,
)
from .scalars import FieldSpec

__all__ = [
    "CorpusEntry",
    "build_example",
    "direct_sum",
    "five_dim",
    "filiform",
    "fuzz_algebra",
    "fuzz_instances",
    "odd_family",
    "permute_basis",
    "rescale_basis",
    "standard_entries",
    "ud_component",
]


def _assemble(field: FieldSpec, labels: Sequence[str], products: dict,
              kernel_labels: Sequence[str]):
    """Shared builder core: integer coefficients to scalars, identity check,
    split validation.  `products` maps (left, right) labels to (out, int)."""
    for (left, right), (_out, coeff) in products.items():
        if not field.scalar(coeff):
            raise FieldCharUnsupportedError(
                f"coefficient {coeff} of [{left},{right}] vanishes in {field}"
            )
    algebra = LeibnizAlgebra.from_products(field, labels, products, check=True)
    kernel_idx = [algebra.index_of(lab) for lab in kernel_labels]
    split = BasisSplit.of(algebra.dim, kernel_idx)
    if not validate_split(algebra, split):
        raise InternalInvariantViolation(
            "declared kernel part of a corpus example is not the kernel"
        )
    return algebra, split


def five_dim(field: FieldSpec = FieldSpec.rationals()):
    """The five-dimensional minimal example: a simple three-dimensional
    Lie part acting on a two-dimensional kernel part.  Needs 2 != 0."""
    products = {
        ("e", "h"): ("e", 2), ("h", "e"): ("e", -2),
        ("h", "f"): ("f", 2), ("f", "h"): ("f", -2),
        ("e", "f"): ("h", 1), ("f", "e"): ("h", -1),
        ("p", "h"): ("p", 1), ("q", "e"): ("p", -1),
        ("p", "f"): ("q", 1), ("q", "h"): ("q", -1),
    }
    return _assemble(field, ("e", "h", "f", "p", "q"), products, ("p", "q"))


def filiform(n: int, field: FieldSpec = FieldSpec.rationals()):
    """The model filiform algebra on e_1..e_n: [e_i, e_1] = e_{i+1} for
    1 <= i <= n-1, all other products zero.  Kernel part {e_2..e_n} over
    every field; not minimal for n >= 3."""
    if n < 2:
        raise BadParamsError(f"filiform needs n >= 2, got {n}")
    labels = tuple(f"e_{i}" for i in range(1, n + 1))
    products = {
        (f"e_{i}", "e_1"): (f"e_{i + 1}", 1) for i in range(1, n)
    }
    return _assemble(field, labels, products, labels[1:])


def odd_family(n: int, field: FieldSpec = FieldSpec.rationals()):
    """The odd-dimensional minimal family on {e, f, h, x_0..x_{n-4}}.

    The complement part is a three-dimensional simple Lie algebra and the
    kernel part is an irreducible module for it; n = 5 recovers the
    five-dimensional example up to labels.  Defined for odd n >= 5; every
    structure constant must stay nonzero in the field, which always holds
    over the rationals.
    """
    if n < 5 or n % 2 == 0:
        raise BadParamsError(f"odd_family needs odd n >= 5, got {n}")
    m = n - 4
    labels = ("e", "f", "h") + tuple(f"x_{k}" for k in range(m + 1))
    products = {
        ("e", "f"): ("h", 1), ("f", "e"): ("h", -1),
        ("e", "h"): ("e", 2), ("h", "e"): ("e", -2),
        ("h", "f"): ("f", 2), ("f", "h"): ("f", -2),
    }
    for k in range(1, m + 1):
        products[(f"x_{k}", "e")] = (f"x_{k - 1}", k * (k + 3 - n))
    for k in range(m + 1):
        products[(f"x_{k}", "h")] = (f"x_{k}", n - 4 - 2 * k)
    for k in range(m):
        products[(f"x_{k}", "f")] = (f"x_{k + 1}", 1)
    return _assemble(field, labels, products, labels[3:])


def ud_component(field: FieldSpec = FieldSpec.rationals()):
    """The only finite connected component of a known infinite-dimensional
    algebra: {u_d, e_0, e_1} with [u_d, u_d] = e_0 and [e_0, u_d] = e_1.

    The companion component of that algebra is genuinely infinite: cutting
    its chain e_2, e_3, ... at any finite e_N leaves [[e_N, b], c]-type
    triples with residual (N - 1) e_N != 0, so no finite truncation of it
    satisfies the Leibniz identity.  Only this component is representable
    here, and it is what this builder returns.
    """
    products = {
        ("u_d", "u_d"): ("e_0", 1),
        ("e_0", "u_d"): ("e_1", 1),
    }
    return _assemble(field, ("u_d", "e_0", "e_1"), products, ("e_0", "e_1"))


def _relabel_disjoint(labels_a, labels_b):
    taken = set(labels_a)
    out = []
    for lab in labels_b:
        new = lab
        while new in taken:
            new = new + "'"
        taken.add(new)
        out.append(new)
    return tuple(out)


def direct_sum(a: LeibnizAlgebra, split_a: BasisSplit,
               b: LeibnizAlgebra, split_b: BasisSplit):
    """Orthogonal direct sum: block-diagonal products, concatenated splits.

    Colliding labels from the second summand get primes appended.  The
    result is trusted without re-checking when both summands are verified:
    cross products vanish, so identity violations cannot appear.
    """
    if a.field != b.field:
        raise ValueError("direct summands must share a field")
    field = a.field
    na, nb = a.dim, b.dim
    n = na + nb
    labels = tuple(a.labels) + _relabel_disjoint(a.labels, b.labels)
    products = dict(a.products)
    for (i, j), coords in b.products.items():
        products[(i + na, j + na)] = {k + na: c for k, c in coords.items()}
    kernel = tuple(split_a.kernel) + tuple(k + na for k in split_b.kernel)
    out = LeibnizAlgebra(field, labels, products, check=not (
        a.identity_verified and b.identity_verified))
    out.identity_verified = True  # checked above, or carried by the summands
    return out, BasisSplit.of(n, kernel)


def rescale_basis(algebra: LeibnizAlgebra, split: BasisSplit,
                  diag: Sequence):
    """Replace each basis vector v_i by diag[i] * v_i.

    The structure constants transform by c'[i][j][k] = c[i][j][k] * d_i *
    d_j / d_k; the identity, the kernel subspace, and the graph are all
    unchanged.
    """
    n = algebra.dim
    if len(diag) != n:
        raise ValueError("need one scale per basis vector")
    field = algebra.field
    scales = [field.scalar(d) for d in diag]
    if not all(scales):
        raise ValueError("scales must be nonzero")
    inv = [field.inv(d) for d in scales]
    norm = field.normalise
    products = {
        (i, j): {k: norm(c * scales[i] * scales[j] * inv[k])
                 for k, c in coords.items()}
        for (i, j), coords in algebra.products.items()
    }
    out = LeibnizAlgebra(field, algebra.labels, products,
                         check=not algebra.identity_verified)
    out.identity_verified = True  # checked above, or carried by the input
    return out, split


def permute_basis(algebra: LeibnizAlgebra, split: BasisSplit,
                  order: Sequence[int]):
    """Reorder the basis so that new vector t is old vector order[t].

    Returns (algebra, split, position) where position maps each old index
    to its new index; edges of the graph move along `position`.
    """
    n = algebra.dim
    if sorted(order) != list(range(n)):
        raise ValueError("order must be a permutation of range(dim)")
    position = {old: new for new, old in enumerate(order)}
    labels = tuple(algebra.labels[o] for o in order)
    products = {
        (position[a], position[b]): {position[k]: c
                                     for k, c in coords.items()}
        for (a, b), coords in algebra.products.items()
    }
    out = LeibnizAlgebra(algebra.field, labels, products,
                         check=not algebra.identity_verified)
    out.identity_verified = True  # checked above, or carried by the input
    kernel = tuple(position[k] for k in split.kernel)
    return out, BasisSplit.of(n, kernel), position


def fuzz_algebra(seed, dim: int = 3,
                 field: FieldSpec = FieldSpec.prime(5)):
    """One rejection-sampling trial, deterministic in the seed.

    Draws a random kernel/complement split and a sparse monomial table
    respecting the multiplicative shape (right factors in the kernel part
    multiply to zero, kernel vectors map into the kernel part, squares of
    complement vectors land in the kernel part).  Returns (algebra, split)
    when the Leibniz identity holds and the drawn split matches the
    computed kernel; None when the trial is rejected.
    """
    if field.is_rationals:
        raise BadParamsError("fuzzing needs a finite field")
    if not 1 <= dim <= 4:
        raise BadParamsError(f"fuzz dimension must be 1..4, got {dim}")
    rng = random.Random(seed)
    p = field.p
    ksize = rng.randint(0, dim - 1)
    kernel = tuple(sorted(rng.sample(range(dim), ksize)))
    kset = set(kernel)
    comp = [j for j in range(dim) if j not in kset]
    labels = tuple(f"v{i}" for i in range(dim))
    products = {}
    for i in range(dim):
        for j in comp:
            if i in kset:
                targets = kernel
            elif i == j:
                targets = kernel  # squares must land in the kernel part
            else:
                targets = tuple(range(dim))
            if not targets:
                continue
            if rng.random() < 0.3:
                k = rng.choice(targets)
                coeff = rng.randrange(1, p)
                products[(i, j)] = {k: coeff}
    algebra = LeibnizAlgebra(field, labels, products, check=False)
    if check_leibniz(algebra, stop_early=True):
        return None
    split = BasisSplit.of(dim, kernel)
    if not validate_split(algebra, split):
        return None
    return algebra, split


def fuzz_instances(seed, count: int, max_dim: int = 4,
                   field: FieldSpec = FieldSpec.prime(5),
                   transforms: bool = True) -> list:
    """A deterministic stream of `count` accepted instances.

    Base instances come from fuzz_algebra; when `transforms` is set, each
    acceptance is enriched with a random rescaling, a random basis
    permutation, and (when dimensions fit under max_dim) a direct sum
    with an earlier instance.
    """
    rng = random.Random(f"enrich-{seed}")
    out: list = []
    trial = 0
    while len(out) < count:
        dim = rng.randint(1, max_dim)
        inst = fuzz_algebra(seed * 1_000_003 + trial, dim, field)
        trial += 1
        if inst is None:
            continue
        out.append(inst)
        if not transforms:
            continue
        algebra, split = inst
        if len(out) < count:
            diag = [rng.randrange(1, field.p) for _ in range(algebra.dim)]
            out.append(rescale_basis(algebra, split, diag))
        if len(out) < count:
            order = list(range(algebra.dim))
            rng.shuffle(order)
            permuted, psplit, _pos = permute_basis(algebra, split, order)
            out.append((permuted, psplit))
        if len(out) < count and len(out) >= 2:
            other, other_split = out[rng.randrange(len(out) - 1)]
            if algebra.dim + other.dim <= max_dim:
                out.append(direct_sum(algebra, split, other, other_split))
    return out[:count]


@dataclass(frozen=True)
class CorpusEntry:
    """A registered example with its expected headline facts.

    `expected` records independently known values (kernel labels, edge
    count, component count, minimality) that the test suite freezes."""

    name: str
    params: dict
    origin: str
    expected: dict = dc_field(default_factory=dict)

    def instantiate(self):
        return build_example(self.name, self.params)


def _ud_plus_five(field: FieldSpec = FieldSpec.rationals()):
    return direct_sum(*ud_component(field), *five_dim(field))


def _five_doubled(field: FieldSpec = FieldSpec.rationals()):
    return direct_sum(*five_dim(field), *five_dim(field))


_BUILDERS = {
    "five_dim": five_dim,
    "filiform": filiform,
    "odd_family": odd_family,
    "ud_component": ud_component,
    "ud_plus_five": _ud_plus_five,
    "five_doubled": _five_doubled,
}


# the type of each parameter a builder takes; a bool is not an int here
_PARAM_TYPES = {"n": int, "field": FieldSpec}


def build_example(name: str, params: Optional[dict] = None):
    """Instantiate a registered example by name; params are builder
    keyword arguments (e.g. {'n': 7}, {'field': FieldSpec.prime(5)}).
    A missing or unknown parameter, an ``n`` that is not an int and a
    ``field`` that is not a FieldSpec raise BadParamsError, before the
    builder runs."""
    if name not in _BUILDERS:
        raise UnknownExampleError(
            f"unknown example {name!r}; known: {sorted(_BUILDERS)}"
        )
    builder = _BUILDERS[name]
    params = params or {}
    takes = inspect.signature(builder).parameters
    for key, value in params.items():
        if key not in takes:
            problem = f"{name}() got an unexpected keyword argument {key!r}"
        elif (not isinstance(value, _PARAM_TYPES[key])
              or isinstance(value, bool)):
            problem = (f"{key} must be {_PARAM_TYPES[key].__name__}, "
                       f"got {value!r}")
        else:
            continue
        raise BadParamsError(f"bad parameters for {name!r}: {problem}")
    for key, spec in takes.items():
        if spec.default is spec.empty and key not in params:
            raise BadParamsError(f"bad parameters for {name!r}: {name}() "
                                 f"missing required argument {key!r}")
    return builder(**params)


def standard_entries() -> tuple:
    """The default corpus: every registered example at reference
    parameters, with frozen expected facts."""
    return (
        CorpusEntry(
            "five_dim", {}, "five-dimensional minimal algebra with a "
            "simple Lie complement part",
            {"kernel": ["p", "q"], "edge_count": 14, "components": 1,
             "minimal": True},
        ),
        CorpusEntry(
            "filiform", {"n": 5}, "model filiform algebra, not minimal",
            {"kernel": ["e_2", "e_3", "e_4", "e_5"], "edge_count": 7,
             "components": 1, "minimal": False},
        ),
        CorpusEntry(
            "odd_family", {"n": 5}, "odd-dimensional minimal family, "
            "smallest member",
            {"kernel": ["x_0", "x_1"], "edge_count": 14, "components": 1,
             "minimal": True},
        ),
        CorpusEntry(
            "odd_family", {"n": 7}, "odd-dimensional minimal family",
            {"kernel": ["x_0", "x_1", "x_2", "x_3"], "edge_count": 26,
             "components": 1, "minimal": True},
        ),
        CorpusEntry(
            "ud_component", {}, "finite component of an "
            "infinite-dimensional algebra",
            {"kernel": ["e_0", "e_1"], "edge_count": 3, "components": 1,
             "minimal": False},
        ),
        CorpusEntry(
            "ud_plus_five", {}, "direct sum exercising the component "
            "decomposition",
            {"kernel": ["e_0", "e_1", "p", "q"], "edge_count": 17,
             "components": 2, "minimal": False},
        ),
        CorpusEntry(
            "five_doubled", {}, "two orthogonal copies of the "
            "five-dimensional algebra",
            {"kernel": ["p", "q", "p'", "q'"], "edge_count": 28,
             "components": 2, "minimal": False},
        ),
    )
