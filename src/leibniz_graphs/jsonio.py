"""Reading and writing the JSON document formats.

Two document kinds, each with a versioned schema shipped in
``leibniz_graphs/schemas/``:

* algebra documents: field, labels, optional kernel labels, and the
  sparse nonzero products of a multiplicative basis;
* map documents: one column-major matrix (column j = image of basis
  vector j).

Scalars serialize canonically: reduced ``"a"``/``"a/b"`` strings with a
positive denominator over the rationals, plain integers ``0..p-1`` over
GF(p).  Emission is deterministic, so serialize/parse round-trips are
byte-stable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from importlib import resources

import jsonschema

from .algebra import (
    BasisSplit,
    LeibnizAlgebra,
    MultiplicativeTable,
    check_leibniz,
    leibniz_kernel,
    to_multiplicative,
    validate_split,
)
from .errors import InputDocumentError, InvalidSplitError, NotLeibnizError
from .scalars import FieldSpec

__all__ = [
    "ALGEBRA_SCHEMA_VERSION",
    "algebra_from_json",
    "algebra_to_json",
    "dumps",
    "field_from_json",
    "field_to_json",
    "load_schema",
    "map_from_json",
    "map_to_json",
    "scalar_from_json",
    "scalar_to_json",
]

ALGEBRA_SCHEMA_VERSION = 1
_SCHEMA_CACHE: dict = {}


def load_schema(name: str) -> dict:
    """Load a shipped schema document ('algebra' or 'map')."""
    if name not in _SCHEMA_CACHE:
        path = resources.files(__package__) / "schemas" / f"{name}.v1.schema.json"
        _SCHEMA_CACHE[name] = json.loads(path.read_text())
    return _SCHEMA_CACHE[name]


def _schema_validate(doc, name: str) -> None:
    validator = jsonschema.Draft202012Validator(load_schema(name))
    errors = sorted(validator.iter_errors(doc), key=lambda e: e.json_path)
    if errors:
        first = errors[0]
        raise InputDocumentError(first.message, first.json_path)


def field_to_json(field: FieldSpec):
    return "Q" if field.is_rationals else {"p": field.p}


def field_from_json(value) -> FieldSpec:
    if value == "Q":
        return FieldSpec.rationals()
    if isinstance(value, dict) and set(value) == {"p"}:
        try:
            return FieldSpec.prime(value["p"])
        except ValueError as exc:
            raise InputDocumentError(str(exc), "$.field.p") from None
    raise InputDocumentError(f"unrecognized field {value!r}", "$.field")


def scalar_to_json(value):
    """A field value in document form: a string over Q, an int over GF(p)."""
    if isinstance(value, Fraction):
        return str(value)
    return value


def scalar_from_json(field: FieldSpec, value, path: str = "$"):
    if field.is_rationals:
        if isinstance(value, bool):
            raise InputDocumentError("boolean is not a scalar", path)
        if isinstance(value, int):
            return field.scalar(value)
        if isinstance(value, str):
            try:
                return field.scalar(Fraction(value))
            except (ValueError, ZeroDivisionError):
                raise InputDocumentError(
                    f"{value!r} is not a rational scalar", path
                ) from None
        raise InputDocumentError(
            f"rational scalars are strings, got {type(value).__name__}", path
        )
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputDocumentError(
            f"GF({field.p}) scalars are integers, got {value!r}", path
        )
    if not 0 <= value < field.p:
        raise InputDocumentError(
            f"residue {value} outside 0..{field.p - 1}", path
        )
    return field.scalar(value)


def algebra_to_json(algebra: LeibnizAlgebra, split: BasisSplit,
                    table: MultiplicativeTable | None = None) -> dict:
    """Canonical algebra document: products sorted by index pair, kernel
    labels in basis order."""
    if table is None:
        table = to_multiplicative(algebra, split, validate=False)
    labels = algebra.labels
    return {
        "field": field_to_json(algebra.field),
        "labels": list(labels),
        "kernel": [labels[k] for k in split.kernel],
        "products": [
            {"l": labels[i], "r": labels[j], "out": labels[k],
             "c": scalar_to_json(c)}
            for (i, j), (k, c) in table.entries
        ],
    }


def algebra_from_json(doc):
    """Parse and fully validate an algebra document.

    Validation order: schema shape, label references, scalar formats,
    duplicate products, the Leibniz identity, then the kernel split
    (declared and re-validated, or inferred from the computed kernel).
    Returns (algebra, split, table).
    """
    _schema_validate(doc, "algebra")
    field = field_from_json(doc["field"])
    labels = tuple(doc["labels"])
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    products = {}
    seen = {}
    for pos, entry in enumerate(doc["products"]):
        path = f"$.products[{pos}]"
        for key in ("l", "r", "out"):
            if entry[key] not in index:
                raise InputDocumentError(
                    f"unknown label {entry[key]!r}", f"{path}.{key}"
                )
        coeff = scalar_from_json(field, entry["c"], f"{path}.c")
        if not coeff:
            raise InputDocumentError(
                "zero coefficient; omit zero products instead", f"{path}.c"
            )
        pair = (index[entry["l"]], index[entry["r"]])
        if pair in seen:
            raise InputDocumentError(
                f"duplicate product for ({entry['l']}, {entry['r']}); "
                f"first at $.products[{seen[pair]}]", path
            )
        seen[pair] = pos
        products[pair] = {index[entry["out"]]: coeff}
    algebra = LeibnizAlgebra(field, labels, products, check=False)
    violations = check_leibniz(algebra)
    if violations:
        raise NotLeibnizError(violations)
    if "kernel" in doc:
        for pos, lab in enumerate(doc["kernel"]):
            if lab not in index:
                raise InputDocumentError(
                    f"unknown label {lab!r}", f"$.kernel[{pos}]"
                )
        split = BasisSplit.of(n, (index[lab] for lab in doc["kernel"]))
        if not validate_split(algebra, split):
            raise InvalidSplitError(
                "declared kernel does not span the computed kernel ideal"
            )
    else:
        kernel = leibniz_kernel(algebra)
        members = kernel.basis_members()
        if len(members) != kernel.rank:
            raise InputDocumentError(
                "the kernel ideal is not spanned by basis vectors, so this "
                "basis admits no kernel/complement split", "$.labels"
            )
        split = BasisSplit.of(n, members)
    table = to_multiplicative(algebra, split, validate=False)
    return algebra, split, table


def map_to_json(matrix_columns) -> dict:
    """Serialize columns (image vectors) into a map document."""
    return {
        "matrix": [[scalar_to_json(c) for c in col] for col in matrix_columns]
    }


def map_from_json(doc, field: FieldSpec, dim: int):
    """Parse a map document against an algebra's field and dimension.
    Returns the list of columns; LinearMap assembly is the caller's
    business (keeps this module free of equivalence imports)."""
    _schema_validate(doc, "map")
    matrix = doc["matrix"]
    if len(matrix) != dim:
        raise InputDocumentError(
            f"expected {dim} columns, got {len(matrix)}", "$.matrix"
        )
    columns = []
    for j, col in enumerate(matrix):
        if len(col) != dim:
            raise InputDocumentError(
                f"column {j} has length {len(col)}, expected {dim}",
                f"$.matrix[{j}]"
            )
        columns.append(tuple(
            scalar_from_json(field, v, f"$.matrix[{j}][{i}]")
            for i, v in enumerate(col)
        ))
    return columns


def dumps(obj) -> str:
    """The one JSON emitter: fixed layout, trailing newline, byte-stable."""
    return json.dumps(obj, indent=2, ensure_ascii=False) + "\n"
