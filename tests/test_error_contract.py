"""The CLI's error contract, frozen byte for byte.

Each case writes one or two documents, most of them broken, runs one CLI
command on them and compares its exit code, stdout and stderr with
``tests/error_contract.json``.  The cases cover a mutation for every
schema keyword, the semantic checks that follow the schema, invalid JSON
and broken map documents for ``equiv``.  Schema errors are the first
error jsonschema reports, so this table also pins its messages and JSON
paths.

After a deliberate change to a message, rewrite the table with

    PYTHONPATH=src python tests/test_error_contract.py

and review its diff.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
import tempfile
from pathlib import Path

import pytest

from leibniz_graphs.cli import main
from leibniz_graphs.corpus import filiform, five_dim
from leibniz_graphs.jsonio import algebra_to_json
from leibniz_graphs.scalars import FieldSpec

TABLE = Path(__file__).with_name("error_contract.json")

BASE = algebra_to_json(*five_dim())               # over Q, string scalars
BASE_GF = algebra_to_json(*filiform(4, FieldSpec.prime(5)))  # int scalars
IDENTITY_MAP = {"matrix": [["1" if i == j else "0" for i in range(5)]
                           for j in range(5)]}


_DELETE = object()


def _edit(base, path, value):
    """A deep copy of base with the item at path set (or deleted when
    value is _DELETE)."""
    doc = copy.deepcopy(base)
    target = doc
    for key in path[:-1]:
        target = target[key]
    if value is _DELETE:
        del target[path[-1]]
    else:
        target[path[-1]] = value
    return doc


def _algebra_cases():
    """(name, document) pairs run through `validate`."""
    yield from [
        ("root_array", []),
        ("root_string", "Q"),
        ("missing_field", _edit(BASE, ["field"], _DELETE)),
        ("missing_labels", _edit(BASE, ["labels"], _DELETE)),
        ("missing_products", _edit(BASE, ["products"], _DELETE)),
        ("extra_top_level_key", _edit(BASE, ["extra"], "nope")),
        ("field_unknown_string", _edit(BASE, ["field"], "R")),
        ("field_lowercase_q", _edit(BASE, ["field"], "q")),
        ("field_number", _edit(BASE, ["field"], 5)),
        ("field_null", _edit(BASE, ["field"], None)),
        ("field_object_without_p", _edit(BASE, ["field"], {})),
        ("field_extra_key", _edit(BASE_GF, ["field", "q"], 1)),
        ("field_p_string", _edit(BASE_GF, ["field", "p"], "5")),
        ("field_p_integral_float", _edit(BASE_GF, ["field", "p"], 5.0)),
        ("field_p_integral_float_no_products",
         {"field": {"p": 5.0}, "labels": ["a"], "products": []}),
        ("field_p_fractional_float", _edit(BASE_GF, ["field", "p"], 5.5)),
        ("field_p_true", _edit(BASE_GF, ["field", "p"], True)),
        ("field_p_below_minimum", _edit(BASE_GF, ["field", "p"], 1)),
        ("field_p_negative", _edit(BASE_GF, ["field", "p"], -7)),
        ("field_p_composite", _edit(BASE_GF, ["field", "p"], 6)),
        ("labels_string", _edit(BASE, ["labels"], "e h f p q")),
        ("labels_object", _edit(BASE, ["labels"], {"e": 0})),
        ("label_number", _edit(BASE, ["labels", 1], 1)),
        ("label_null", _edit(BASE, ["labels", 1], None)),
        ("label_empty", _edit(BASE, ["labels", 1], "")),
        ("label_nan", _edit(BASE, ["labels", 1], float("nan"))),
        ("label_duplicate", _edit(BASE, ["labels", 1], "e")),
        ("kernel_string", _edit(BASE, ["kernel"], "p")),
        ("kernel_label_empty", _edit(BASE, ["kernel", 0], "")),
        ("kernel_label_number", _edit(BASE, ["kernel", 0], 3)),
        ("kernel_duplicate", _edit(BASE, ["kernel"], ["p", "p"])),
        ("kernel_unknown_label", _edit(BASE, ["kernel", 0], "z")),
        ("kernel_wrong_span", _edit(BASE, ["kernel"], ["p"])),
        ("products_object", _edit(BASE, ["products"], {})),
        ("product_list", _edit(BASE, ["products", 2], ["h", "f", "f", "2"])),
        ("product_string", _edit(BASE, ["products", 2], "[h,f]=2f")),
        ("product_missing_c", _edit(BASE, ["products", 2, "c"], _DELETE)),
        ("product_missing_out", _edit(BASE, ["products", 2, "out"],
                                      _DELETE)),
        ("product_extra_key", _edit(BASE, ["products", 2, "note"], "x")),
        ("product_l_number", _edit(BASE, ["products", 2, "l"], 1)),
        ("product_out_null", _edit(BASE, ["products", 2, "out"], None)),
        ("product_unknown_l", _edit(BASE, ["products", 2, "l"], "z")),
        ("product_unknown_out", _edit(BASE, ["products", 2, "out"], "z")),
        ("product_duplicate", _edit(BASE, ["products", 3],
                                    BASE["products"][2])),
        ("product_breaks_identity", _edit(BASE, ["products", 4, "out"],
                                          "e")),
        ("c_integral_float", _edit(BASE, ["products", 2, "c"], 2.0)),
        ("c_fractional_float", _edit(BASE, ["products", 2, "c"], 1.5)),
        ("c_true", _edit(BASE, ["products", 2, "c"], True)),
        ("c_null", _edit(BASE, ["products", 2, "c"], None)),
        ("c_decimal", _edit(BASE, ["products", 2, "c"], "0.5")),
        ("c_zero_denominator", _edit(BASE, ["products", 2, "c"], "1/0")),
        ("c_negative_denominator", _edit(BASE, ["products", 2, "c"],
                                         "1/-2")),
        ("c_empty", _edit(BASE, ["products", 2, "c"], "")),
        ("c_leading_space", _edit(BASE, ["products", 2, "c"], " 2")),
        ("c_trailing_newline", _edit(BASE, ["products", 2, "c"],
                                     BASE["products"][2]["c"] + "\n")),
        # a rational must be written as scalar_to_json writes it ("-2")
        ("c_unreduced", _edit(BASE, ["products", 2, "c"], "-4/2")),
        ("c_denominator_one", _edit(BASE, ["products", 2, "c"], "-2/1")),
        ("c_leading_zero", _edit(BASE, ["products", 2, "c"], "-02")),
        ("c_zero_unreduced", _edit(BASE, ["products", 2, "c"], "0/3")),
        ("c_zero", _edit(BASE, ["products", 2, "c"], "0")),
        ("c_negative_zero", _edit(BASE, ["products", 2, "c"], "-0")),
        ("c_negative_zero_over_three", _edit(BASE, ["products", 2, "c"],
                                             "-0/3")),
        ("c_unreduced_fraction", _edit(BASE, ["products", 2, "c"], "-2/4")),
        # one digit past the interpreter's limit for int() of a string
        ("c_numerator_4301_digits", _edit(BASE, ["products", 2, "c"],
                                          "1" * 4301)),
        ("c_gf_string", _edit(BASE_GF, ["products", 0, "c"], "1")),
        ("c_gf_integral_float", _edit(BASE_GF, ["products", 0, "c"], 1.0)),
        ("c_gf_residue_too_large", _edit(BASE_GF, ["products", 0, "c"], 5)),
        ("c_gf_residue_negative", _edit(BASE_GF, ["products", 0, "c"], -1)),
        ("several_errors", _edit(_edit(_edit(BASE, ["field"], "R"),
                                       ["labels", 0], ""),
                                 ["products", 1, "c"], "x")),
        ("no_kernel_split", {
            "field": "Q",
            "labels": ["a", "b", "c", "d"],
            "products": [{"l": "a", "r": "b", "out": "c", "c": "1"},
                         {"l": "b", "r": "a", "out": "d", "c": "1"}],
        }),
    ]


def _map_cases():
    """(name, map document) pairs run through `equiv` on BASE."""
    yield from [
        ("map_root_array", []),
        ("map_missing_matrix", {}),
        ("map_extra_key", _edit(IDENTITY_MAP, ["rows"], [])),
        ("map_matrix_object", {"matrix": {}}),
        ("map_column_string", _edit(IDENTITY_MAP, ["matrix", 1], "01000")),
        ("map_entry_bad_string", _edit(IDENTITY_MAP, ["matrix", 1, 1], "x")),
        ("map_entry_fractional_float", _edit(IDENTITY_MAP,
                                             ["matrix", 1, 1], 1.5)),
        ("map_entry_integral_float", _edit(IDENTITY_MAP,
                                           ["matrix", 1, 1], 1.0)),
        ("map_entry_true", _edit(IDENTITY_MAP, ["matrix", 1, 1], True)),
        ("map_entry_trailing_newline", _edit(IDENTITY_MAP,
                                             ["matrix", 1, 1], "1\n")),
        ("map_entry_unreduced", _edit(IDENTITY_MAP, ["matrix", 1, 1],
                                      "3/3")),
        ("map_entry_negative_zero", _edit(IDENTITY_MAP, ["matrix", 1, 0],
                                          "-0")),
        ("map_too_few_columns", _edit(IDENTITY_MAP, ["matrix", 4], _DELETE)),
        ("map_short_column", _edit(IDENTITY_MAP, ["matrix", 4, 4], _DELETE)),
        ("map_singular", _edit(IDENTITY_MAP, ["matrix", 4, 4], "0")),
    ]


def _nested(base, path, depth: int) -> str:
    """The JSON text of base with the item at path replaced by the string
    "2" wrapped in ``depth`` arrays; built as text, so the depth is not
    limited by the encoder's recursion."""
    marker = "@nested@"
    text = json.dumps(_edit(base, path, marker))
    return text.replace(json.dumps(marker),
                        "[" * depth + '"2"' + "]" * depth)


# A document nests three levels where ``c`` sits (the document, the
# product list, the product), so ``c`` wrapped in 29 arrays reaches the
# nesting limit of 32 and one more array passes it.
_NESTING_CASES = [
    ("c_nested_at_limit", ["validate", "doc.json"],
     {"doc.json": _nested(BASE, ["products", 2, "c"], 29)}),
    ("c_nested_past_limit", ["validate", "doc.json"],
     {"doc.json": _nested(BASE, ["products", 2, "c"], 30)}),
    ("c_nested_deeply", ["validate", "doc.json"],
     {"doc.json": _nested(BASE, ["products", 2, "c"], 500)}),
    ("field_nested_deeply", ["validate", "doc.json"],
     {"doc.json": _nested(BASE, ["field"], 500)}),
    ("kernel_label_nested_deeply", ["minimal", "doc.json"],
     {"doc.json": _nested(BASE, ["kernel", 0], 500)}),
    ("map_entry_nested_deeply", ["equiv", "doc.json", "--map", "map.json"],
     {"doc.json": json.dumps(BASE),
      "map.json": _nested(IDENTITY_MAP, ["matrix", 1, 1], 500)}),
    ("map_matrix_nested_deeply", ["equiv", "doc.json", "--map", "map.json"],
     {"doc.json": json.dumps(BASE),
      "map.json": _nested(IDENTITY_MAP, ["matrix"], 500)}),
]


_RAW_CASES = [
    # (name, argv, {file name: text, or bytes written as they are})
    ("json_not_json", ["validate", "doc.json"], {"doc.json": "{not json"}),
    ("json_empty_file", ["validate", "doc.json"], {"doc.json": ""}),
    ("json_trailing_comma", ["validate", "doc.json"],
     {"doc.json": '{"field": "Q",}'}),
    ("json_trailing_text", ["validate", "doc.json"], {"doc.json": "{} x"}),
    ("json_absent_file", ["validate", "absent.json"], {}),
    ("equiv_map_not_json", ["equiv", "doc.json", "--map", "map.json"],
     {"doc.json": json.dumps(BASE), "map.json": "[1, 2"}),
    ("minimal_broken_document", ["minimal", "doc.json"],
     {"doc.json": json.dumps(_edit(BASE, ["labels", 1], ""))}),
    ("weakdiv_broken_document", ["weakdiv", "doc.json"],
     {"doc.json": json.dumps(_edit(BASE, ["products", 2, "c"], "1/0"))}),
    ("graph_broken_document", ["graph", "doc.json", "--format", "dot"],
     {"doc.json": json.dumps(_edit(BASE, ["field"], {"p": 1}))}),
    ("json_nested_too_deeply", ["validate", "doc.json"],
     {"doc.json": "[" * 100000}),
    ("json_not_utf8", ["validate", "doc.json"],
     {"doc.json": json.dumps(_edit(BASE, ["labels", 0], "\u00e9"),
                             ensure_ascii=False).encode("latin-1")}),
    ("equiv_map_not_utf8", ["equiv", "doc.json", "--map", "map.json"],
     {"doc.json": json.dumps(BASE),
      "map.json": b"\xff" + json.dumps(IDENTITY_MAP).encode()}),
    ("corpus_export_unknown_param",
     ["corpus", "export", "five_dim", "--n", "7"], {}),
]


def cases():
    """Every case as (name, argv, {file name: text or bytes})."""
    for name, doc in _algebra_cases():
        yield name, ["validate", "doc.json"], {"doc.json": json.dumps(doc)}
    for name, doc in _map_cases():
        yield (name, ["equiv", "doc.json", "--map", "map.json"],
               {"doc.json": json.dumps(BASE), "map.json": json.dumps(doc)})
    yield from _RAW_CASES
    yield from _NESTING_CASES


def run_case(directory: Path, argv, files) -> dict:
    """Write files into directory and run the CLI there."""
    for file_name, content in files.items():
        if isinstance(content, bytes):
            (directory / file_name).write_bytes(content)
        else:
            (directory / file_name).write_text(content, encoding="utf-8")
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse rejected the command line
                code = exc.code
    finally:
        os.chdir(cwd)
    return {"exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


CASES = list(cases())


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_every_case_is_in_the_table(table):
    names = [name for name, _argv, _files in CASES]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(table)


@pytest.mark.parametrize("name, argv, files", CASES,
                         ids=[case[0] for case in CASES])
def test_error_contract(name, argv, files, table, tmp_path):
    assert run_case(tmp_path, argv, files) == table[name]


if __name__ == "__main__":
    frozen = {}
    for name, argv, files in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            frozen[name] = run_case(Path(scratch), argv, files)
    TABLE.write_text(json.dumps(frozen, indent=2, ensure_ascii=False) + "\n",
                     encoding="utf-8")
    print(f"wrote {len(frozen)} cases to {TABLE}", file=sys.stderr)
