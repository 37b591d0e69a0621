"""JSON document formats: schema validation, parsing, canonical emission."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings
from hypothesis import strategies as st

from leibniz_graphs.algebra import BasisSplit
from leibniz_graphs.corpus import fuzz_instances, standard_entries
from leibniz_graphs.errors import (
    InputDocumentError,
    InvalidSplitError,
    NotLeibnizError,
)
from leibniz_graphs.jsonio import (
    algebra_from_json,
    algebra_to_json,
    dumps,
    field_from_json,
    field_to_json,
    load_schema,
    map_from_json,
    scalar_from_json,
    scalar_to_json,
)
from leibniz_graphs.scalars import FieldSpec

Q = FieldSpec.rationals()
F5 = FieldSpec.prime(5)

FIVE_DIM_DOC = {
    "field": "Q",
    "labels": ["e", "h", "f", "p", "q"],
    "kernel": ["p", "q"],
    "products": [
        {"l": "e", "r": "h", "out": "e", "c": "2"},
        {"l": "h", "r": "e", "out": "e", "c": "-2"},
        {"l": "h", "r": "f", "out": "f", "c": "2"},
        {"l": "f", "r": "h", "out": "f", "c": "-2"},
        {"l": "e", "r": "f", "out": "h", "c": "1"},
        {"l": "f", "r": "e", "out": "h", "c": "-1"},
        {"l": "p", "r": "h", "out": "p", "c": "1"},
        {"l": "q", "r": "e", "out": "p", "c": "-1"},
        {"l": "p", "r": "f", "out": "q", "c": "1"},
        {"l": "q", "r": "h", "out": "q", "c": "-1"},
    ],
}


def _doc(**overrides):
    doc = {k: (list(v) if isinstance(v, list) else v)
           for k, v in FIVE_DIM_DOC.items()}
    doc["products"] = [dict(p) for p in FIVE_DIM_DOC["products"]]
    doc.update(overrides)
    return doc


def test_round_trip_is_byte_stable_for_the_whole_corpus():
    for entry in standard_entries():
        alg, split = entry.instantiate()
        doc = algebra_to_json(alg, split)
        parsed_alg, parsed_split, parsed_table = algebra_from_json(doc)
        assert parsed_alg == alg
        assert parsed_split == split
        doc2 = algebra_to_json(parsed_alg, parsed_split, parsed_table)
        assert dumps(doc) == dumps(doc2)


def test_round_trip_over_a_finite_field():
    for alg, split in fuzz_instances(seed=2, count=6):
        doc = algebra_to_json(alg, split)
        parsed_alg, parsed_split, _table = algebra_from_json(doc)
        assert parsed_alg == alg and parsed_split == split
        for product in doc["products"]:
            assert isinstance(product["c"], int)


def test_parse_accepts_the_frozen_document():
    alg, split, table = algebra_from_json(FIVE_DIM_DOC)
    assert alg.labels == ("e", "h", "f", "p", "q")
    assert split.kernel == (3, 4)
    assert len(table.entries) == 10
    assert alg.identity_verified


def test_kernel_is_inferred_when_absent():
    doc = _doc()
    del doc["kernel"]
    _alg, split, _table = algebra_from_json(doc)
    assert split.kernel == (3, 4)


def test_wrong_declared_kernel_is_rejected():
    with pytest.raises(InvalidSplitError):
        algebra_from_json(_doc(kernel=["p"]))
    with pytest.raises(InvalidSplitError):
        algebra_from_json(_doc(kernel=["f", "p", "q"]))


def test_non_aligned_kernel_has_no_split():
    # [a,b] = c and [b,a] = d put c + d in the kernel, which no subset of
    # this basis spans
    doc = {
        "field": "Q",
        "labels": ["a", "b", "c", "d"],
        "products": [
            {"l": "a", "r": "b", "out": "c", "c": "1"},
            {"l": "b", "r": "a", "out": "d", "c": "1"},
        ],
    }
    with pytest.raises(InputDocumentError) as exc:
        algebra_from_json(doc)
    assert "no kernel/complement split" in str(exc.value)
    doc["kernel"] = ["c", "d"]
    with pytest.raises(InvalidSplitError):
        algebra_from_json(doc)


def test_identity_violations_are_input_errors():
    bad = _doc()
    bad["products"][4] = {"l": "e", "r": "f", "out": "e", "c": "1"}
    with pytest.raises(NotLeibnizError) as exc:
        algebra_from_json(bad)
    assert exc.value.violations


def test_schema_violations_carry_json_paths():
    with pytest.raises(InputDocumentError):
        algebra_from_json({"labels": ["a"], "products": []})  # no field
    with pytest.raises(InputDocumentError):
        algebra_from_json(_doc(labels=["e", "e", "f", "p", "q"]))
    with pytest.raises(InputDocumentError):
        algebra_from_json(_doc(extra="nope"))
    with pytest.raises(InputDocumentError) as exc:
        bad = _doc()
        bad["products"][0]["c"] = "1/0"
        algebra_from_json(bad)
    assert "products[0]" in str(exc.value)


def test_semantic_violations_carry_json_paths():
    bad = _doc()
    bad["products"][0]["out"] = "z"
    with pytest.raises(InputDocumentError) as exc:
        algebra_from_json(bad)
    assert exc.value.path == "$.products[0].out"

    bad = _doc()
    bad["products"][1] = dict(bad["products"][0])
    with pytest.raises(InputDocumentError) as exc:
        algebra_from_json(bad)
    assert "duplicate product" in str(exc.value)

    bad = _doc()
    bad["products"][0]["c"] = "0"
    with pytest.raises(InputDocumentError) as exc:
        algebra_from_json(bad)
    assert "zero coefficient" in str(exc.value)


def test_field_codec():
    assert field_to_json(Q) == "Q"
    assert field_to_json(F5) == {"p": 5}
    assert field_from_json("Q") == Q
    assert field_from_json({"p": 5}) == F5
    with pytest.raises(InputDocumentError):
        field_from_json({"p": 6})
    with pytest.raises(InputDocumentError):
        field_from_json("R")
    # the schema's "integer" admits 5.0, so the modulus is checked again
    for modulus in (5.0, True, "5"):
        with pytest.raises(InputDocumentError) as exc:
            field_from_json({"p": modulus})
        assert exc.value.path == "$.field.p"
        with pytest.raises(ValueError, match="must be an integer"):
            FieldSpec.prime(modulus)


def test_scalar_emission_is_canonical():
    assert scalar_to_json(Q.scalar(Fraction(2, 1))) == "2"
    assert scalar_to_json(Q.scalar(Fraction(-2, 6))) == "-1/3"
    assert scalar_to_json(F5.scalar(3)) == 3


def test_rational_scalar_parsing_is_lenient():
    assert scalar_from_json(Q, "4/6") == Q.scalar(Fraction(2, 3))
    assert scalar_from_json(Q, 2) == Q.scalar(2)  # plain ints are accepted
    # decimal strings parse exactly here; the schema still rejects them
    # inside documents, where only "a" and "a/b" are canonical
    assert scalar_from_json(Q, "0.5") == Q.scalar(Fraction(1, 2))
    for bad in ("a", "1/0", True, 1.5, None):
        with pytest.raises(InputDocumentError):
            scalar_from_json(Q, bad)


def test_finite_field_scalar_parsing_is_strict():
    assert scalar_from_json(F5, 3) == F5.scalar(3)
    for bad in (5, -1, "3", True, 2.0):
        with pytest.raises(InputDocumentError):
            scalar_from_json(F5, bad)


def test_map_document_is_column_major():
    # column 0 is the image of v_0, column 1 the image of v_1
    doc = {"matrix": [["1", "2"], ["0", "1"]]}
    columns = map_from_json(doc, Q, 2)
    assert columns[0] == (Q.scalar(1), Q.scalar(2))
    with pytest.raises(InputDocumentError):
        map_from_json(doc, Q, 3)
    with pytest.raises(InputDocumentError):
        map_from_json({"matrix": [["1"], ["0", "1"]]}, Q, 2)
    with pytest.raises(InputDocumentError):
        map_from_json({"rows": []}, Q, 2)


def test_dumps_layout_is_fixed():
    text = dumps({"b": 1, "a": [1, 2]})
    assert text == '{\n  "b": 1,\n  "a": [\n    1,\n    2\n  ]\n}\n'
    assert text == dumps({"b": 1, "a": [1, 2]})


# Characters that the encoder must escape or pass through untouched:
# quotes, backslashes, every control character, the line and paragraph
# separators, non-ASCII text and lone surrogates.
_SPECIAL = ['"', "\\", "/", "\x7f", "\u2028", "\u2029", "\u00e9", "\u6f22",
            "\U0001f600", "\ud800", "\udfff"] + [chr(c) for c in range(32)]
_TEXT = st.text(st.one_of(st.sampled_from(_SPECIAL),
                          st.characters(exclude_categories=())), max_size=8)
_LEAVES = st.one_of(
    _TEXT, st.none(), st.booleans(),
    st.integers(), st.integers(-10 ** 40, 10 ** 40), st.sampled_from([0, 1]),
)
_VALUES = st.recursive(
    _LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(inner, max_size=5).map(tuple),
        st.lists(_TEXT, max_size=5),
        st.dictionaries(_TEXT, inner, max_size=5),
    ),
    max_leaves=25,
)


@seed(20)
@settings(max_examples=100, deadline=None)
@given(_VALUES)
def test_dumps_is_the_standard_library_indent_2_layout(value):
    assert dumps(value) == json.dumps(value, indent=2,
                                      ensure_ascii=False) + "\n"


_UNSERIALIZABLE = {
    "float": 1.5,
    "integral_float": 2.0,
    "fraction": Fraction(1, 2),
    "set": {1, 2},
    "frozenset": frozenset(),
    "bytes": b"x",
    "object": object(),
    "int_key": {1: "a"},
    "none_key": {None: "a"},
    "tuple_key": {("a",): 1},
    "nested_float": [{"a": [1.0]}],
    "nested_set": {"a": {"b": {2}}},
    "float_after_strings": ["a", "b", 3.0],
}


@pytest.mark.parametrize("value", list(_UNSERIALIZABLE.values()),
                         ids=list(_UNSERIALIZABLE))
def test_dumps_rejects_what_the_documents_never_hold(value):
    with pytest.raises(TypeError):
        dumps(value)


def test_shipped_schemas_load():
    algebra_schema = load_schema("algebra")
    assert algebra_schema["$id"].endswith("algebra:v1")
    map_schema = load_schema("map")
    assert map_schema["$id"].endswith("map:v1")
    assert load_schema("algebra") is algebra_schema  # cached
    with pytest.raises(FileNotFoundError):
        load_schema("unknown")


def test_split_survives_serialization():
    alg, split, table = algebra_from_json(FIVE_DIM_DOC)
    assert split == BasisSplit.of(5, (3, 4))
    doc = algebra_to_json(alg, split, table)
    assert doc["kernel"] == ["p", "q"]
    assert doc["products"] == sorted(
        doc["products"],
        key=lambda e: (alg.index_of(e["l"]), alg.index_of(e["r"])),
    )
