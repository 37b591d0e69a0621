"""Command-line interface: exit codes, output formats, byte stability."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from leibniz_graphs import algebra as algebra_module
from leibniz_graphs import graphs as graphs_module
from leibniz_graphs import structure as structure_module
from leibniz_graphs.cli import (
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_OK,
    main,
)


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def five_dim_doc(tmp_path, capsys):
    path = tmp_path / "five_dim.json"
    code, _out, err = _run(capsys, "corpus", "export", "five_dim",
                           "-o", str(path))
    assert code == EXIT_OK, err
    return str(path)


@pytest.fixture()
def filiform_doc(tmp_path, capsys):
    path = tmp_path / "filiform.json"
    code, _out, err = _run(capsys, "corpus", "export", "filiform",
                           "--n", "5", "-o", str(path))
    assert code == EXIT_OK, err
    return str(path)


def test_export_then_validate_round_trip(five_dim_doc, capsys):
    code, out, _err = _run(capsys, "validate", five_dim_doc)
    assert code == EXIT_OK
    summary = json.loads(out)
    assert summary == {
        "ok": True,
        "field": "Q",
        "dimension": 5,
        "kernel": ["p", "q"],
        "table_entries": 10,
    }
    again_code, again_out, _err = _run(capsys, "validate", five_dim_doc)
    assert (again_code, again_out) == (code, out)


def test_graph_formats(five_dim_doc, capsys):
    code, dot, _err = _run(capsys, "graph", five_dim_doc, "--format", "dot")
    assert code == EXIT_OK
    assert dot.startswith("digraph leibniz {")
    assert '"p" [shape=box];' in dot
    assert dot.count(" -> ") == 14

    code, text, _err = _run(capsys, "graph", five_dim_doc, "--format", "text")
    assert code == EXIT_OK
    assert text.splitlines()[0] == "e -> e"
    assert len(text.splitlines()) == 14

    code, as_json, _err = _run(capsys, "graph", five_dim_doc,
                               "--format", "json")
    assert code == EXIT_OK
    doc = json.loads(as_json)
    assert len(doc["edges"]) == 14
    assert {"label": "p", "part": "kernel"} in doc["vertices"]
    assert {"label": "e", "part": "complement"} in doc["vertices"]


def test_subgraph_kernel_part(five_dim_doc, capsys):
    code, out, _err = _run(capsys, "subgraph", five_dim_doc,
                           "--part", "kernel")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert [v["label"] for v in doc["vertices"]] == ["p", "q"]
    assert sorted(map(tuple, doc["edges"])) == [
        ("p", "p"), ("p", "q"), ("q", "p"), ("q", "q"),
    ]


def test_output_file_matches_stdout(five_dim_doc, tmp_path, capsys):
    code, out, _err = _run(capsys, "graph", five_dim_doc, "--format", "dot")
    assert code == EXIT_OK
    path = tmp_path / "graph.dot"
    code, empty, _err = _run(capsys, "graph", five_dim_doc, "--format", "dot",
                             "-o", str(path))
    assert code == EXIT_OK and empty == ""
    assert path.read_text(encoding="utf-8") == out


def test_decompose_direct_sum(tmp_path, capsys):
    path = tmp_path / "sum.json"
    assert _run(capsys, "corpus", "export", "ud_plus_five",
                "-o", str(path))[0] == EXIT_OK
    code, out, _err = _run(capsys, "decompose", str(path), "--format", "text")
    assert code == EXIT_OK
    assert out == (
        "part 0: dim 3: u_d e_0 e_1\n"
        "part 1: dim 5: e h f p q\n"
    )
    code, out, _err = _run(capsys, "decompose", str(path))
    parts = json.loads(out)["parts"]
    assert [p["dimension"] for p in parts] == [3, 5]


def test_ideal_command(five_dim_doc, capsys):
    code, out, _err = _run(capsys, "ideal", five_dim_doc, "--generator", "p")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["dimension"] == 2
    assert doc["basis_members"] == ["p", "q"]

    code, out, _err = _run(capsys, "ideal", five_dim_doc,
                           "--coords", "1,0,0,0,0")
    assert code == EXIT_OK
    assert json.loads(out)["dimension"] == 5

    code, _out, err = _run(capsys, "ideal", five_dim_doc, "--coords", "1,2")
    assert code == EXIT_INPUT and "5 entries" in err

    # a vector that starts with a minus sign is a value, not an option
    attached = _run(capsys, "ideal", five_dim_doc, "--coords=-1,0,1,-1,0")
    assert attached[0] == EXIT_OK
    assert _run(capsys, "ideal", five_dim_doc,
                "--coords", "-1,0,1,-1,0") == attached
    code, _out, err = _run(capsys, "ideal", five_dim_doc, "--generator", "z")
    assert code == EXIT_INPUT


def test_minimal_exit_codes(five_dim_doc, filiform_doc, capsys):
    code, out, _err = _run(capsys, "minimal", five_dim_doc)
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["minimality"]["minimal"] is True
    assert report["minimality"]["oracle"] is True

    code, out, _err = _run(capsys, "minimal", filiform_doc,
                           "--format", "text")
    assert code == EXIT_FALSE
    assert "minimal: False" in out
    assert "kernel subgraph weak symmetry fails at edge (e_2, e_3)" in out


def test_minimal_oracle_controls(five_dim_doc, capsys):
    code, out, _err = _run(capsys, "minimal", five_dim_doc, "--oracle", "off")
    assert code == EXIT_OK
    assert json.loads(out)["minimality"]["oracle"] is None

    # forcing the oracle beyond its bound is an input error
    code, _out, err = _run(capsys, "minimal", five_dim_doc,
                           "--oracle", "on", "--bound", "3")
    assert code == EXIT_INPUT and "exceeds enumeration bound" in err

    # auto mode quietly skips it instead
    code, out, _err = _run(capsys, "minimal", five_dim_doc, "--bound", "3")
    assert code == EXIT_OK
    assert json.loads(out)["minimality"]["oracle"] is None


def test_weakdiv_exit_codes(five_dim_doc, filiform_doc, capsys):
    code, out, _err = _run(capsys, "weakdiv", five_dim_doc)
    assert code == EXIT_OK
    assert json.loads(out) == {"holds": True, "violations": []}

    code, out, _err = _run(capsys, "weakdiv", filiform_doc)
    assert code == EXIT_FALSE
    doc = json.loads(out)
    assert doc["holds"] is False
    assert doc["violations"][0] == {
        "product": {"l": "e_2", "r": "e_1", "out": "e_3", "c": "1"},
        "missing_member": "e_2",
    }


def _write_map(tmp_path, columns):
    path = tmp_path / "map.json"
    path.write_text(json.dumps({"matrix": columns}), encoding="utf-8")
    return str(path)


def test_equiv_identity_map(five_dim_doc, tmp_path, capsys):
    columns = [["1" if i == j else "0" for i in range(5)] for j in range(5)]
    map_path = _write_map(tmp_path, columns)
    code, out, _err = _run(capsys, "equiv", five_dim_doc, "--map", map_path)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["automorphism"] is True
    assert doc["basis_bijection"] == {lab: lab for lab in "ehfpq"}
    assert doc["graph_isomorphic"] is True
    assert doc["decomposition_equivalent"] is True


def test_equiv_rejects_non_automorphism(five_dim_doc, tmp_path, capsys):
    # swapping e and f reverses the sign of [.,h] products
    columns = [
        ["0", "0", "1", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["1", "0", "0", "0", "0"],
        ["0", "0", "0", "1", "0"],
        ["0", "0", "0", "0", "1"],
    ]
    code, out, _err = _run(capsys, "equiv", five_dim_doc,
                           "--map", _write_map(tmp_path, columns))
    assert code == EXIT_FALSE
    doc = json.loads(out)
    assert doc["automorphism"] is False
    assert doc["automorphism_witness"] == ["e", "h"]


def test_equiv_automorphism_without_bijection(five_dim_doc, tmp_path, capsys):
    # a diagonal automorphism with scalar slack maps no basis to a basis
    columns = [
        ["4", "0", "0", "0", "0"],
        ["0", "1", "0", "0", "0"],
        ["0", "0", "1/4", "0", "0"],
        ["0", "0", "0", "2", "0"],
        ["0", "0", "0", "0", "1/2"],
    ]
    code, out, _err = _run(capsys, "equiv", five_dim_doc,
                           "--map", _write_map(tmp_path, columns))
    assert code == EXIT_FALSE
    doc = json.loads(out)
    assert doc["automorphism"] is True
    assert doc["basis_bijection"] is None


def _record_first_arguments(monkeypatch, module, name) -> list:
    """The first argument of every call of module.name, through every
    package module that binds the function; each is kept alive, so
    distinct objects have distinct ids."""
    original = getattr(module, name)
    seen = []

    def recorded(first, *args, **kwargs):
        seen.append(first)
        return original(first, *args, **kwargs)

    for module_name, bound in list(sys.modules.items()):
        if (module_name.partition(".")[0] == "leibniz_graphs"
                and getattr(bound, name, None) is original):
            monkeypatch.setattr(bound, name, recorded)
    return seen


def _distinct(objects) -> bool:
    return len({id(x) for x in objects}) == len(objects)


@pytest.mark.parametrize("argv, documents", [
    pytest.param(["minimal", "doc.json"], 1, id="minimal"),
    pytest.param(["minimal", "doc.json", "--format", "text",
                  "--oracle", "off"], 1, id="minimal-text-oracle-off"),
    pytest.param(["weakdiv", "doc.json"], 1, id="weakdiv"),
    pytest.param(["decompose", "doc.json"], 1, id="decompose"),
    pytest.param(["equiv", "doc.json", "--map", "swap.json"], 1, id="equiv"),
    pytest.param(["fuzz", "--seed", "3", "--count", "6", "--dim", "4",
                  "--prime", "7"], 6, id="fuzz"),
])
def test_each_command_computes_each_fact_once(argv, documents, tmp_path,
                                              monkeypatch, capsys):
    # five_doubled with the map that swaps its two copies: equiv accepts
    # it, so it reads the graph and the decomposition too
    assert _run(capsys, "corpus", "export", "five_doubled",
                "-o", str(tmp_path / "doc.json"))[0] == EXIT_OK
    swap = [[1 if i == (j + 5) % 10 else 0 for i in range(10)]
            for j in range(10)]
    (tmp_path / "swap.json").write_text(json.dumps({"matrix": swap}),
                                        encoding="utf-8")
    monkeypatch.chdir(tmp_path)
    tabled = _record_first_arguments(monkeypatch, algebra_module,
                                     "to_multiplicative")
    graphed = _record_first_arguments(monkeypatch, graphs_module,
                                      "build_graph")
    listed = _record_first_arguments(monkeypatch, structure_module,
                                     "enumerate_basis_ideals")
    closed = []
    real_close = structure_module._GeneratorIdeals._close

    def close(generators, v):
        closed.append((generators, v))
        return real_close(generators, v)

    monkeypatch.setattr(structure_module._GeneratorIdeals, "_close", close)
    code, _out, err = _run(capsys, *argv)
    assert code in (EXIT_OK, EXIT_FALSE), err
    # one table per document, and the graph and the ideals at most once
    assert len(tabled) == documents and _distinct(tabled)
    for calls in (graphed, listed):
        assert len(calls) <= documents and _distinct(calls)
    assert len(graphed) == (argv[0] != "weakdiv") * documents
    # each generator mask is closed at most once
    assert len({(id(g), v) for g, v in closed}) == len(closed)


def test_input_error_exits(tmp_path, capsys):
    code, _out, err = _run(capsys, "validate", str(tmp_path / "absent.json"))
    assert code == EXIT_INPUT and "cannot read" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json", encoding="utf-8")
    code, _out, err = _run(capsys, "validate", str(bad))
    assert code == EXIT_INPUT and "invalid JSON" in err

    schema_bad = tmp_path / "schema.json"
    schema_bad.write_text(json.dumps({"field": "Q"}), encoding="utf-8")
    code, _out, err = _run(capsys, "validate", str(schema_bad))
    assert code == EXIT_INPUT

    not_leibniz = tmp_path / "not_leibniz.json"
    not_leibniz.write_text(json.dumps({
        "field": "Q",
        "labels": ["e", "h", "f", "p", "q"],
        "products": [
            {"l": "e", "r": "h", "out": "e", "c": "2"},
            {"l": "h", "r": "e", "out": "e", "c": "-2"},
            {"l": "h", "r": "f", "out": "f", "c": "2"},
            {"l": "f", "r": "h", "out": "f", "c": "-2"},
            {"l": "e", "r": "f", "out": "e", "c": "1"},
            {"l": "f", "r": "e", "out": "h", "c": "-1"},
        ],
    }), encoding="utf-8")
    code, _out, err = _run(capsys, "validate", str(not_leibniz))
    assert code == EXIT_INPUT and "Leibniz identity fails" in err


def test_integer_over_the_digit_limit_is_invalid_json(tmp_path, capsys):
    huge = tmp_path / "huge.json"
    huge.write_text('{"field": {"p": ' + "7" * 5000 + '}, "labels": ["a"], '
                    '"products": []}', encoding="utf-8")
    code, out, err = _run(capsys, "validate", str(huge))
    assert code == EXIT_INPUT and out == ""
    assert err.startswith(f"error: invalid JSON in {huge}: ")
    assert "digits" in err


def _pythonpath_env() -> dict:
    env = dict(os.environ)
    src = Path(__file__).resolve().parent.parent / "src"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(src), env.get("PYTHONPATH")]))
    return env


def test_valid_documents_never_import_jsonschema(five_dim_doc, filiform_doc,
                                                 tmp_path, capsys):
    odd = tmp_path / "odd.json"
    assert _run(capsys, "corpus", "export", "odd_family", "--n", "15",
                "-o", str(odd))[0] == EXIT_OK
    identity = tmp_path / "identity.json"
    identity.write_text(json.dumps({"matrix": [
        ["1" if i == j else "0" for i in range(5)] for j in range(5)]}))
    runs = [
        (["validate", str(odd)], EXIT_OK),
        (["minimal", str(odd)], EXIT_OK),
        (["minimal", filiform_doc, "--format", "text"], EXIT_FALSE),
        (["weakdiv", str(odd)], EXIT_OK),
        (["weakdiv", filiform_doc], EXIT_FALSE),
        (["graph", five_dim_doc, "--format", "dot"], EXIT_OK),
        (["equiv", five_dim_doc, "--map", str(identity)], EXIT_OK),
    ]
    script = (
        "import json, sys\n"
        "from leibniz_graphs.cli import main\n"
        "codes = [main(argv + ['-o', sys.argv[1]]) for argv in json.loads("
        "sys.argv[2])]\n"
        "print(json.dumps([codes, sorted(m for m in sys.modules "
        "if m.partition('.')[0] == 'jsonschema')]))\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "out"),
         json.dumps([argv for argv, _code in runs])],
        env=_pythonpath_env(), capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    codes, imported = json.loads(done.stdout)
    assert codes == [code for _argv, code in runs]
    assert imported == []


@pytest.mark.parametrize("where, depth", [
    ("c", 982), ("c", 985), ("field", 985), ("matrix", 985),
])
def test_nesting_near_the_recursion_limit_is_an_input_error(
        where, depth, five_dim_doc, tmp_path):
    # A rejected value nested this deep used to exhaust the stack while
    # jsonschema quoted it.  A fresh interpreter gives the stack depth a
    # user's command has.
    doc = json.loads(Path(five_dim_doc).read_text(encoding="utf-8"))
    columns = [["1" if i == j else "0" for i in range(5)] for j in range(5)]
    argv = ["validate", str(tmp_path / "doc.json")]
    if where == "c":
        doc["products"][2]["c"] = "@"
        path = "$.products[2].c" + "[0]" * 29
    elif where == "field":
        doc["field"] = "@"
        path = "$.field" + "[0]" * 31
    else:
        columns[1][1] = "@"
        path = "$.matrix[1][1]" + "[0]" * 29
        argv = ["equiv", argv[1], "--map", str(tmp_path / "map.json")]
    nested = "[" * depth + '"1"' + "]" * depth
    for name, value in (("doc.json", doc), ("map.json", {"matrix": columns})):
        (tmp_path / name).write_text(
            json.dumps(value).replace('"@"', nested), encoding="utf-8")
    done = subprocess.run(
        [sys.executable, "-m", "leibniz_graphs.cli", *argv],
        env=_pythonpath_env(), capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (
        EXIT_INPUT, "",
        f"error: {path}: arrays or objects nested more than 32 levels "
        f"deep\n")


def test_corpus_list_and_export_errors(capsys):
    code, out, _err = _run(capsys, "corpus", "list", "--format", "text")
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("five_dim:")
    assert len(out.splitlines()) == 7

    code, out, _err = _run(capsys, "corpus", "list")
    entries = json.loads(out)
    assert {e["name"] for e in entries} >= {"five_dim", "filiform"}

    code, _out, err = _run(capsys, "corpus", "export", "nope")
    assert code == EXIT_INPUT and "unknown example" in err
    code, _out, err = _run(capsys, "corpus", "export")
    assert code == EXIT_INPUT
    # characteristic exclusion surfaces as an input error
    code, _out, err = _run(capsys, "corpus", "export", "five_dim",
                           "--prime", "2")
    assert code == EXIT_INPUT and "vanishes" in err


def test_corpus_export_with_params(tmp_path, capsys):
    code, out, _err = _run(capsys, "corpus", "export", "odd_family",
                           "--n", "7")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert len(doc["labels"]) == 7
    assert doc["kernel"] == ["x_0", "x_1", "x_2", "x_3"]

    code, out, _err = _run(capsys, "corpus", "export", "filiform",
                           "--n", "4", "--prime", "5")
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["field"] == {"p": 5}
    assert all(isinstance(p["c"], int) for p in doc["products"])


def test_fuzz_report_is_deterministic(capsys):
    code, out, _err = _run(capsys, "fuzz", "--seed", "7", "--count", "6")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["count"] == 6
    assert report["totals"] == {
        "reachability_pairs": 18,
        "weak_division_holds": 6,
        "minimal": 3,
    }
    code, again, _err = _run(capsys, "fuzz", "--seed", "7", "--count", "6")
    assert again == out

    code, out, _err = _run(capsys, "fuzz", "--seed", "7", "--count", "6",
                           "--no-check")
    assert code == EXIT_OK
    report = json.loads(out)
    assert report["checks_ran"] is False
    assert report["totals"] == {
        "reachability_pairs": 0, "weak_division_holds": 0, "minimal": 0,
    }


def test_fuzz_parameter_errors(capsys):
    code, _out, err = _run(capsys, "fuzz", "--prime", "6")
    assert code == EXIT_INPUT
    code, _out, err = _run(capsys, "fuzz", "--dim", "9", "--count", "2")
    assert code == EXIT_INPUT
