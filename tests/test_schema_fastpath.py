"""The stdlib shape check of ``jsonio`` against jsonschema.

The shape check restates the shipped schemas in plain Python, so that a
valid document never imports jsonschema.  It must be sound: whatever it
accepts, jsonschema accepts.  It may be stricter, because a rejection only
hands the document to jsonschema.  Every document here is judged by both,
and jsonschema is imported by this test alone.
"""

from __future__ import annotations

import copy
import json
from collections import OrderedDict
from enum import IntEnum

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leibniz_graphs.corpus import (
    filiform,
    fuzz_instances,
    odd_family,
    permute_basis,
    standard_entries,
)
from leibniz_graphs.jsonio import (
    _SCALAR_PATTERN,
    _SHAPE_OK,
    algebra_to_json,
    dumps,
    load_schema,
    scalar_to_json,
)
from leibniz_graphs.scalars import FieldSpec

VALIDATORS = {name: jsonschema.Draft202012Validator(load_schema(name))
              for name in ("algebra", "map")}


def _judge(doc, name):
    """(shape check accepts, jsonschema accepts), after asserting that the
    first implies the second."""
    fast = _SHAPE_OK[name](doc)
    valid = VALIDATORS[name].is_valid(doc)
    assert valid or not fast, f"shape check accepts a {name} document " \
                              f"jsonschema rejects: {doc!r}"
    return fast, valid


def test_the_pattern_is_the_schemas_own():
    def patterns(node):
        if isinstance(node, dict):
            for key, value in node.items():
                if key == "pattern":
                    yield value
                else:
                    yield from patterns(value)
        elif isinstance(node, list):
            for value in node:
                yield from patterns(value)

    for name in VALIDATORS:
        assert set(patterns(load_schema(name))) == {_SCALAR_PATTERN.pattern}


# -- named hazards ----------------------------------------------------------

ALGEBRA = {"field": "Q", "labels": ["a", "b"], "kernel": ["b"],
           "products": [{"l": "a", "r": "a", "out": "b", "c": "1"}]}
MAP = {"matrix": [["1", "0"], [0, 1]]}


class Small(IntEnum):
    ONE = 1


class Text(str):
    pass


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _set(doc, path, value):
    """doc with the node at path replaced; the empty path is the root."""
    if not path:
        return value
    _get(doc, path[:-1])[path[-1]] = value
    return doc


def _edit(base, path, value):
    return _set(copy.deepcopy(base), path, value)


def _drop(base, path):
    doc = copy.deepcopy(base)
    del _get(doc, path[:-1])[path[-1]]
    return doc


C = ("products", 0, "c")
ENTRY = ("matrix", 1, 0)

# (name, schema, document, shape check accepts, jsonschema accepts)
HAZARDS = [
    ("valid_algebra", "algebra", ALGEBRA, True, True),
    ("valid_without_kernel", "algebra", _drop(ALGEBRA, ("kernel",)),
     True, True),
    ("valid_gf_field", "algebra", _edit(ALGEBRA, ("field",), {"p": 2}),
     True, True),
    ("valid_huge_modulus", "algebra",
     _edit(ALGEBRA, ("field",), {"p": 10 ** 40}), True, True),
    ("valid_map", "map", MAP, True, True),
    # type
    ("root_list", "algebra", [ALGEBRA], False, False),
    ("root_ordered_dict", "algebra", OrderedDict(ALGEBRA), False, True),
    ("field_number", "algebra", _edit(ALGEBRA, ("field",), 5), False, False),
    ("field_null", "algebra", _edit(ALGEBRA, ("field",), None), False, False),
    ("p_integral_float", "algebra",
     _edit(ALGEBRA, ("field",), {"p": 5.0}), False, True),
    ("p_true", "algebra", _edit(ALGEBRA, ("field",), {"p": True}),
     False, False),
    ("p_string", "algebra", _edit(ALGEBRA, ("field",), {"p": "5"}),
     False, False),
    ("labels_string", "algebra", _edit(ALGEBRA, ("labels",), "ab"),
     False, False),
    ("labels_tuple", "algebra", _edit(ALGEBRA, ("labels",), ("a", "b")),
     False, False),
    ("label_true", "algebra", _edit(ALGEBRA, ("labels", 0), True),
     False, False),
    ("label_str_subclass", "algebra", _edit(ALGEBRA, ("labels", 0),
                                            Text("a")), False, True),
    ("kernel_tuple", "algebra", _edit(ALGEBRA, ("kernel",), ("b",)),
     False, False),
    ("kernel_label_number", "algebra", _edit(ALGEBRA, ("kernel", 0), 1),
     False, False),
    ("products_tuple", "algebra",
     _edit(ALGEBRA, ("products",), tuple(ALGEBRA["products"])), False, False),
    ("product_list", "algebra",
     _edit(ALGEBRA, ("products", 0), ["a", "a", "b", "1"]), False, False),
    ("product_tuple_of_pairs", "algebra",
     _edit(ALGEBRA, ("products", 0),
           tuple(ALGEBRA["products"][0].items())), False, False),
    ("product_string", "algebra", _edit(ALGEBRA, ("products", 0), "a*a=b"),
     False, False),
    ("product_null", "algebra", _edit(ALGEBRA, ("products", 0), None),
     False, False),
    ("product_l_number", "algebra", _edit(ALGEBRA, ("products", 0, "l"), 0),
     False, False),
    ("product_r_null", "algebra", _edit(ALGEBRA, ("products", 0, "r"), None),
     False, False),
    ("product_out_list", "algebra",
     _edit(ALGEBRA, ("products", 0, "out"), ["b"]), False, False),
    ("c_integral_float", "algebra", _edit(ALGEBRA, C, 2.0), False, True),
    ("c_fractional_float", "algebra", _edit(ALGEBRA, C, 1.5), False, False),
    ("c_true", "algebra", _edit(ALGEBRA, C, True), False, False),
    ("c_null", "algebra", _edit(ALGEBRA, C, None), False, False),
    ("c_int_subclass", "algebra", _edit(ALGEBRA, C, Small.ONE), False, True),
    ("c_plain_int", "algebra", _edit(ALGEBRA, C, -7), True, True),
    ("matrix_tuple", "map", {"matrix": tuple(MAP["matrix"])}, False, False),
    ("column_tuple", "map", _edit(MAP, ("matrix", 1), (0, 1)), False, False),
    ("column_string", "map", _edit(MAP, ("matrix", 1), "01"), False, False),
    ("map_root_list", "map", [MAP], False, False),
    ("entry_integral_float", "map", _edit(MAP, ENTRY, 1.0), False, True),
    ("entry_true", "map", _edit(MAP, ENTRY, True), False, False),
    ("entry_null", "map", _edit(MAP, ENTRY, None), False, False),
    # required
    ("missing_field", "algebra", _drop(ALGEBRA, ("field",)), False, False),
    ("missing_labels", "algebra", _drop(ALGEBRA, ("labels",)), False, False),
    ("missing_products", "algebra", _drop(ALGEBRA, ("products",)),
     False, False),
    ("field_without_p", "algebra", _edit(ALGEBRA, ("field",), {}),
     False, False),
    ("product_without_c", "algebra", _drop(ALGEBRA, C), False, False),
    ("product_without_out", "algebra", _drop(ALGEBRA, ("products", 0, "out")),
     False, False),
    ("map_without_matrix", "map", {}, False, False),
    # additionalProperties
    ("root_extra_key", "algebra", _edit(ALGEBRA, ("extra",), 1),
     False, False),
    ("field_extra_key", "algebra", _edit(ALGEBRA, ("field",),
                                         {"p": 5, "q": 1}), False, False),
    ("product_extra_key", "algebra", _edit(ALGEBRA, ("products", 0, "x"), 1),
     False, False),
    ("map_extra_key", "map", _edit(MAP, ("rows",), []), False, False),
    # const / oneOf
    ("field_lowercase_q", "algebra", _edit(ALGEBRA, ("field",), "q"),
     False, False),
    ("field_padded_q", "algebra", _edit(ALGEBRA, ("field",), "Q "),
     False, False),
    # minimum
    ("p_one", "algebra", _edit(ALGEBRA, ("field",), {"p": 1}), False, False),
    ("p_negative", "algebra", _edit(ALGEBRA, ("field",), {"p": -3}),
     False, False),
    # minLength
    ("label_empty", "algebra", _edit(ALGEBRA, ("labels", 1), ""),
     False, False),
    ("kernel_label_empty", "algebra", _edit(ALGEBRA, ("kernel", 0), ""),
     False, False),
    # uniqueItems
    ("labels_duplicate", "algebra", _edit(ALGEBRA, ("labels", 1), "a"),
     False, False),
    ("kernel_duplicate", "algebra", _edit(ALGEBRA, ("kernel",), ["b", "b"]),
     False, False),
    # pattern; jsonschema applies it with re.search, where "$" also
    # matches before a trailing newline
    ("c_trailing_newline", "algebra", _edit(ALGEBRA, C, "1\n"), True, True),
    ("c_zero_denominator", "algebra", _edit(ALGEBRA, C, "1/0"), False, False),
    ("c_empty", "algebra", _edit(ALGEBRA, C, ""), False, False),
    ("c_decimal", "algebra", _edit(ALGEBRA, C, "0.5"), False, False),
    ("c_plus_sign", "algebra", _edit(ALGEBRA, C, "+1"), False, False),
    ("c_leading_space", "algebra", _edit(ALGEBRA, C, " 1"), False, False),
    ("c_non_ascii_digit", "algebra", _edit(ALGEBRA, C, "١"),
     False, False),
    ("c_leading_zero_denominator", "algebra", _edit(ALGEBRA, C, "1/01"),
     False, False),
    ("c_negative_fraction", "algebra", _edit(ALGEBRA, C, "-03/4"),
     True, True),
    ("entry_trailing_newline", "map", _edit(MAP, ENTRY, "1\n"), True, True),
    ("entry_zero_denominator", "map", _edit(MAP, ENTRY, "1/0"), False, False),
    ("entry_empty", "map", _edit(MAP, ENTRY, ""), False, False),
]


@pytest.mark.parametrize("name, schema, doc, fast, valid", HAZARDS,
                         ids=[hazard[0] for hazard in HAZARDS])
def test_named_hazards(name, schema, doc, fast, valid):
    assert _judge(doc, schema) == (fast, valid)


# -- generated documents and one mutation per schema keyword ---------------

LABELS = st.text(min_size=1, max_size=3)
SCALARS = st.one_of(
    st.integers(),
    st.from_regex(r"-?[0-9]+(/[1-9][0-9]*)?", fullmatch=True),
)
FIELDS = st.one_of(st.just("Q"),
                   st.builds(lambda p: {"p": p}, st.integers(min_value=2)))
WRONG = st.one_of(
    st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=3),
    st.lists(st.integers(), max_size=2),
    st.lists(st.integers(), max_size=2).map(tuple),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def algebra_docs(draw):
    labels = draw(st.lists(LABELS, max_size=5, unique=True))
    names = st.sampled_from(labels) if labels else st.text(max_size=3)
    doc = {
        "field": draw(FIELDS),
        "labels": labels,
        "products": draw(st.lists(st.fixed_dictionaries(
            {"l": names, "r": names, "out": names, "c": SCALARS}),
            max_size=4)),
    }
    if draw(st.booleans()):
        doc["kernel"] = draw(st.lists(names, max_size=len(labels),
                                      unique=True))
    return doc


map_docs = st.builds(lambda m: {"matrix": m},
                     st.lists(st.lists(SCALARS, max_size=3), max_size=3))


def _paths(node, path=()):
    yield path
    if isinstance(node, dict):
        for key, value in node.items():
            yield from _paths(value, path + (key,))
    elif isinstance(node, list):
        for pos, value in enumerate(node):
            yield from _paths(value, path + (pos,))


def _containers(doc, kind):
    """Paths of the nodes of doc that are of type kind."""
    return [path for path in _paths(doc) if type(_get(doc, path)) is kind]


@st.composite
def mutants(draw, base):
    """(keyword, document): a valid document with one mutation aimed at
    one schema keyword."""
    doc = draw(base)
    keyword = draw(st.sampled_from([
        "type", "required", "additionalProperties", "const/oneOf",
        "minimum", "minLength", "uniqueItems", "pattern",
    ]))
    objects = _containers(doc, dict)
    arrays = [path for path in _containers(doc, list) if _get(doc, path)]
    strings = _containers(doc, str)
    if keyword == "type":
        doc = _set(doc, draw(st.sampled_from(list(_paths(doc)))), draw(WRONG))
    elif keyword == "required":
        target = _get(doc, draw(st.sampled_from(objects)))
        del target[draw(st.sampled_from(sorted(target)))]
    elif keyword == "additionalProperties":
        target = _get(doc, draw(st.sampled_from(objects)))
        target[draw(st.text(max_size=3))] = draw(WRONG)
    elif keyword == "const/oneOf" and "field" in doc:
        doc["field"] = draw(st.one_of(
            st.text(max_size=2), FIELDS.map(lambda f: {"p": f}), WRONG))
    elif keyword == "minimum" and "field" in doc:
        doc["field"] = {"p": draw(st.integers(max_value=1))}
    elif keyword == "minLength" and strings:
        doc = _set(doc, draw(st.sampled_from(strings)), "")
    elif keyword == "uniqueItems" and arrays:
        target = _get(doc, draw(st.sampled_from(arrays)))
        target.append(draw(st.sampled_from(target)))
    elif keyword == "pattern" and strings:
        doc = _set(doc, draw(st.sampled_from(strings)),
                   draw(st.text(max_size=4)))
    return keyword, doc


@settings(max_examples=100, deadline=None)
@given(algebra_docs(), map_docs)
def test_generated_valid_documents_are_accepted_by_both(algebra, matrix):
    assert _judge(algebra, "algebra") == (True, True)
    assert _judge(matrix, "map") == (True, True)


@settings(max_examples=300, deadline=None)
@given(mutants(algebra_docs()))
def test_algebra_mutants_are_never_wrongly_accepted(mutant):
    _keyword, doc = mutant
    _judge(doc, "algebra")


@settings(max_examples=100, deadline=None)
@given(mutants(map_docs))
def test_map_mutants_are_never_wrongly_accepted(mutant):
    _keyword, doc = mutant
    _judge(doc, "map")


# -- documents this package emits -------------------------------------------

def _emitted():
    pairs = [entry.instantiate() for entry in standard_entries()]
    pairs += [odd_family(17, FieldSpec.prime(1_000_000_007)), filiform(15)]
    pairs.append(permute_basis(*odd_family(15), list(range(14, -1, -1)))[:2])
    for seed in range(3):
        for field in (FieldSpec.prime(5), FieldSpec.prime(7)):
            for transforms in (True, False):
                pairs += fuzz_instances(seed, 40, max_dim=4, field=field,
                                        transforms=transforms)
    return pairs


def test_every_emitted_document_passes_the_shape_check():
    for algebra, split in _emitted():
        doc = json.loads(dumps(algebra_to_json(algebra, split)))
        assert _judge(doc, "algebra") == (True, True), doc
        dim = algebra.dim
        identity = {"matrix": [
            [scalar_to_json(algebra.field.scalar(int(i == j)))
             for i in range(dim)] for j in range(dim)]}
        assert _judge(json.loads(dumps(identity)), "map") == (True, True)
