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

``dumps`` is the package's one JSON emitter.  It writes a fixed layout,
that of ``json.dumps(value, indent=2, ensure_ascii=False)`` followed by a
newline: one item per line, indented two spaces per level, a comma
ending every line but a container's last, ``": "`` after each key,
empty containers as ``[]`` and ``{}``, and non-ASCII text unescaped.
It accepts dicts with ``str`` keys, lists, tuples, ``str``, ``int``,
``bool`` and ``None``, and raises TypeError on anything else, floats
included.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from json.encoder import encode_basestring as _quote
from math import gcd

from .algebra import (
    BasisSplit,
    LeibnizAlgebra,
    MultiplicativeTable,
    leibniz_kernel,
    to_multiplicative,
    validate_split,
)
from .errors import InputDocumentError, InvalidSplitError
from .scalars import FieldSpec

__all__ = [
    "algebra_from_json",
    "algebra_to_json",
    "dumps",
    "field_from_json",
    "field_to_json",
    "load_schema",
    "map_from_json",
    "scalar_from_json",
    "scalar_to_json",
]

_SCHEMA_CACHE: dict = {}


def load_schema(name: str) -> dict:
    """Load a shipped schema document ('algebra' or 'map')."""
    if name not in _SCHEMA_CACHE:
        from importlib import resources
        path = resources.files(__package__) / "schemas" / f"{name}.v1.schema.json"
        _SCHEMA_CACHE[name] = json.loads(path.read_text())
    return _SCHEMA_CACHE[name]


# The shape check below restates the two shipped schemas in plain Python.
# It must be sound: whatever it accepts, jsonschema accepts.  It may be
# stricter (integral floats, tuples, subclasses of dict, str or int), since
# a rejection only hands the document to jsonschema, which then reports
# its first error or finds none.
_SCALAR_PATTERN = re.compile(r"^-?[0-9]+(/[1-9][0-9]*)?$")  # both schemas
_ALGEBRA_REQUIRED = frozenset(("field", "labels", "products"))
_ALGEBRA_KEYS = _ALGEBRA_REQUIRED | {"kernel"}
_PRODUCT_KEYS = frozenset(("l", "r", "out", "c"))


def _scalar_ok(value) -> bool:
    # jsonschema applies "pattern" with re.search, so "1\n" matches here too
    return type(value) is int or (
        type(value) is str and _SCALAR_PATTERN.search(value) is not None)


def _labels_ok(labels) -> bool:
    return (type(labels) is list
            and all(type(lab) is str and lab for lab in labels)
            and len(set(labels)) == len(labels))


def _field_ok(field) -> bool:
    if type(field) is str:
        return field == "Q"
    return (type(field) is dict and field.keys() == {"p"}
            and type(field["p"]) is int and field["p"] >= 2)


def _product_ok(entry) -> bool:
    return (type(entry) is dict and entry.keys() == _PRODUCT_KEYS
            and type(entry["l"]) is str and type(entry["r"]) is str
            and type(entry["out"]) is str and _scalar_ok(entry["c"]))


def _algebra_shape_ok(doc) -> bool:
    return (type(doc) is dict
            and _ALGEBRA_REQUIRED <= doc.keys() <= _ALGEBRA_KEYS
            and _field_ok(doc["field"])
            and _labels_ok(doc["labels"])
            and ("kernel" not in doc or _labels_ok(doc["kernel"]))
            and type(doc["products"]) is list
            and all(map(_product_ok, doc["products"])))


def _map_shape_ok(doc) -> bool:
    return (type(doc) is dict and doc.keys() == {"matrix"}
            and type(doc["matrix"]) is list
            and all(type(col) is list and all(map(_scalar_ok, col))
                    for col in doc["matrix"]))


_SHAPE_OK = {"algebra": _algebra_shape_ok, "map": _map_shape_ok}

# Valid documents nest arrays and objects three levels deep.  jsonschema
# recurses once per level when it quotes a value in a message, so a
# rejected document nested close to the interpreter's recursion limit
# would exhaust the stack there; such documents are refused first, at a
# depth that does not depend on the caller's stack.
MAX_NESTING = 32


def _too_deep(doc):
    """The JSON path of the first array or object (in JSON path order)
    nested more than MAX_NESTING levels deep, the document itself being
    level one; None if there is none.  Iterative, so any depth is safe."""
    found = []
    stack = [(doc, "$", 1)]
    while stack:
        value, path, level = stack.pop()
        if type(value) is list:
            items = [(f"{path}[{i}]", v) for i, v in enumerate(value)]
        elif type(value) is dict:
            items = [(f"{path}.{k}", v) for k, v in value.items()]
        else:
            continue
        if level > MAX_NESTING:
            found.append(path)
        else:
            stack.extend((v, p, level + 1) for p, v in items)
    return min(found, default=None)


def _schema_validate(doc, name: str) -> None:
    """Check doc against a shipped schema; raise its first error.

    Valid documents pass the stdlib shape check and never import
    jsonschema.  A document that check rejects is first searched for
    nesting deeper than MAX_NESTING, reported at its JSON path; any
    other goes through jsonschema, whose first error (in JSON path
    order) is the message."""
    if _SHAPE_OK[name](doc):
        return
    deep = _too_deep(doc)
    if deep is not None:
        raise InputDocumentError(
            f"arrays or objects nested more than {MAX_NESTING} levels deep",
            deep)
    import jsonschema
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


# The text scalar_to_json writes for a rational, up to the sign of zero,
# the denominator 1 and the reduction, which _canonical_scalar tests.
_CANONICAL_RATIONAL = re.compile(r"-?(?:0|[1-9][0-9]*)(?:/[1-9][0-9]*)?")


def _canonical_scalar(field: FieldSpec, value):
    """The field value of a document scalar in canonical form, built once;
    None for any other value, which _document_scalar then reads or
    rejects.

    Canonical is what scalar_to_json writes: over Q a string matching
    _CANONICAL_RATIONAL, not "-0", whose denominator is not 1 and is
    coprime to the numerator; over GF(p) an int in 0..p-1."""
    if field.p is not None:
        return value if type(value) is int and 0 <= value < field.p else None
    if type(value) is not str or _CANONICAL_RATIONAL.fullmatch(value) is None:
        return None
    num, slash, den = value.partition("/")
    try:  # int() refuses more digits than sys.get_int_max_str_digits()
        num = int(num)
        if not slash:
            return None if value == "-0" else Fraction(num)
        den = int(den)
    except ValueError:
        return None
    if den == 1 or gcd(num, den) != 1:
        return None
    return Fraction(num, den)


def _document_scalar(field: FieldSpec, value, path: str):
    """A scalar inside a document.  A rational written as a string must be
    the text that scalar_to_json emits for it: reduced, no denominator 1,
    no sign on zero, no leading zeros and no surrounding whitespace.

    The lenient route: the parse calls it only for a value that
    _canonical_scalar does not take, so that its error names ``path``."""
    scalar = scalar_from_json(field, value, path)
    if type(value) is str and value != scalar_to_json(scalar):
        raise InputDocumentError(
            f"{value!r} is not in canonical form; "
            f"write {scalar_to_json(scalar)!r}", path
        )
    return scalar


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

    Validation order: schema shape, then per product in document order
    its label references, its scalar, a zero coefficient and a repeated
    pair, then the Leibniz identity, then the kernel split (declared and
    re-validated, or inferred from the computed kernel).
    Returns (algebra, split, table).

    One pass over the products builds each coefficient once and proves
    what the algebra constructor would check, so the algebra is built
    through its trusted path, which still checks the identity.  JSON
    paths are written only for an error.
    """
    _schema_validate(doc, "algebra")
    field = field_from_json(doc["field"])
    labels = tuple(doc["labels"])
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    products = {}
    for pos, entry in enumerate(doc["products"]):
        try:
            pair = (index[entry["l"]], index[entry["r"]])
            out = index[entry["out"]]
        except KeyError:
            key = next(k for k in ("l", "r", "out") if entry[k] not in index)
            raise InputDocumentError(f"unknown label {entry[key]!r}",
                                     f"$.products[{pos}].{key}") from None
        coeff = _canonical_scalar(field, entry["c"])
        if coeff is None:
            coeff = _document_scalar(field, entry["c"],
                                     f"$.products[{pos}].c")
        if not coeff:
            raise InputDocumentError(
                "zero coefficient; omit zero products instead",
                f"$.products[{pos}].c"
            )
        if pair in products:  # each earlier product added one pair
            raise InputDocumentError(
                f"duplicate product for ({entry['l']}, {entry['r']}); "
                f"first at $.products[{list(products).index(pair)}]",
                f"$.products[{pos}]"
            )
        products[pair] = {out: coeff}
    algebra = LeibnizAlgebra._trusted(field, labels, products)
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
        column = []
        for i, value in enumerate(col):
            scalar = _canonical_scalar(field, value)
            if scalar is None:
                scalar = _document_scalar(field, value, f"$.matrix[{j}][{i}]")
            column.append(scalar)
        columns.append(tuple(column))
    return columns


def dumps(obj) -> str:
    """The one JSON emitter: the text of ``json.dumps(obj, indent=2,
    ensure_ascii=False)`` plus a trailing newline, byte for byte.

    Accepts dicts with ``str`` keys (in insertion order), lists, tuples,
    ``str``, ``int``, ``bool`` and ``None``; anything else, a float or a
    non-``str`` key included, raises TypeError.  Each container is one
    string join, so no pure-Python encoder runs."""
    return _encode(obj, "\n") + "\n"


def _encode(value, pad: str) -> str:
    """The text of value, whose own line starts with pad (a newline and
    the indent).  String items are quoted in place, without a call."""
    inner = pad + "  "
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        try:  # a list of strings, by far the most common, in one C pass
            body = ("," + inner).join(map(_quote, value))
        except TypeError:
            body = ("," + inner).join([
                _quote(item) if type(item) is str else _encode(item, inner)
                for item in value
            ])
        return "[" + inner + body + pad + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        # _quote raises TypeError on a key that is not a str
        return "{" + inner + ("," + inner).join([
            _quote(key) + ": " + (_quote(item) if type(item) is str
                                  else _encode(item, inner))
            for key, item in value.items()
        ]) + pad + "}"
    if isinstance(value, str):
        return _quote(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(
        f"Object of type {type(value).__name__} is not JSON serializable"
    )
