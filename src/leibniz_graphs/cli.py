"""Command line interface.

Exit codes, uniformly: 0 success (and, for predicate commands, the
property holds); 1 input, parse, or validation error; 2 internal
invariant violation (two routes that must agree by theorem disagreed);
3 the checked property is false.

Results go to stdout, diagnostics to stderr.  All output is
deterministic for a given input and seed.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from typing import Optional

from . import corpus as corpus_mod
from .algebra import unit_ideal
from .equivalence import (
    LinearMap,
    decomposition_equivalence,
    induced_graph_isomorphism,
    is_automorphism,
    maps_basis_to_basis,
)
from .errors import (
    InputDocumentError,
    InternalInvariantViolation,
    LeibnizGraphsError,
)
from .graphs import edge_list_text, to_dot
from .jsonio import (
    algebra_from_json,
    algebra_to_json,
    dumps,
    field_to_json,
    map_from_json,
    scalar_from_json,
    scalar_to_json,
)
from .scalars import FieldSpec
from .structure import (
    DEFAULT_ENUM_BOUND,
    _Analysis,
    generated_ideal,
    weak_division_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_INTERNAL = 2
EXIT_FALSE = 3


def _read_json(path: str) -> dict:
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        raise InputDocumentError(f"cannot read {path}: {exc.strerror}")
    try:
        # decoded whole, so the offset counts bytes of the file; newlines
        # are read as text mode reads them
        text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except UnicodeDecodeError as exc:
        raise InputDocumentError(
            f"invalid JSON in {path}: not UTF-8 text ({exc.reason} at "
            f"byte {exc.start})"
        )
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputDocumentError(
            f"invalid JSON in {path}: {exc.msg} at line {exc.lineno} "
            f"column {exc.colno}"
        )
    except ValueError as exc:  # e.g. an integer above the int digit limit
        raise InputDocumentError(f"invalid JSON in {path}: {exc}")
    except RecursionError:
        raise InputDocumentError(
            f"invalid JSON in {path}: arrays or objects nested too deeply"
        )


def _load(path: str, **options) -> tuple:
    """The algebra of a document and the one analysis of it that a command
    reads.  The analysis refers to its algebra weakly, so a command keeps
    the algebra while it reads the analysis."""
    algebra, split, table = algebra_from_json(_read_json(path))
    return algebra, _Analysis(algebra, split, table, **options)


def _emit(text: str, out_path: Optional[str] = None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _graph_json(graph, kernel_vertices) -> dict:
    kernel = set(kernel_vertices)
    return {
        "vertices": [
            {"label": label,
             "part": "kernel" if v in kernel else "complement"}
            for v, label in zip(graph.vertices, graph.labels)
        ],
        "edges": graph.edge_labels(),
    }


def _render_graph(graph, split, fmt: str, out: Optional[str]) -> int:
    if fmt == "dot":
        _emit(to_dot(graph, kernel_vertices=split.kernel), out)
    elif fmt == "text":
        _emit(edge_list_text(graph), out)
    else:
        _emit(dumps(_graph_json(graph, split.kernel)), out)
    return EXIT_OK


def _cmd_validate(args) -> int:
    algebra, facts = _load(args.input)
    _emit(dumps({
        "ok": True,
        "field": field_to_json(algebra.field),
        "dimension": algebra.dim,
        "kernel": [algebra.labels[k] for k in facts.split.kernel],
        "table_entries": len(facts.table.entries),
    }), args.output)
    return EXIT_OK


def _cmd_graph(args) -> int:
    _algebra, facts = _load(args.input)
    return _render_graph(facts.graph, facts.split, args.format, args.output)


def _cmd_subgraph(args) -> int:
    _algebra, facts = _load(args.input)
    graph = facts.sub_k if args.part == "kernel" else facts.sub_j
    return _render_graph(graph, facts.split, args.format, args.output)


def _cmd_decompose(args) -> int:
    _algebra, facts = _load(args.input)
    dec = facts.decomposition
    if args.format == "text":
        lines = [
            f"part {idx}: dim {part.dim}: {' '.join(part.labels)}"
            for idx, part in enumerate(dec.parts)
        ]
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(dumps({
            "parts": [
                {"dimension": part.dim, "vertices": list(part.labels)}
                for part in dec.parts
            ],
        }), args.output)
    return EXIT_OK


def _cmd_ideal(args) -> int:
    algebra, _facts = _load(args.input)
    if args.generator is not None:
        try:
            idx = algebra.index_of(args.generator)
        except KeyError as exc:
            raise InputDocumentError(str(exc))
        ideal = unit_ideal(algebra, idx)
        shown = args.generator
    else:
        raw = [part.strip() for part in args.coords.split(",")]
        if len(raw) != algebra.dim:
            raise InputDocumentError(
                f"--coords needs {algebra.dim} entries, got {len(raw)}"
            )
        def parse_one(i, text):
            if algebra.field.is_rationals:
                return scalar_from_json(algebra.field, text, f"coords[{i}]")
            try:
                return scalar_from_json(algebra.field, int(text),
                                        f"coords[{i}]")
            except ValueError:
                raise InputDocumentError(
                    f"{text!r} is not an integer residue", f"coords[{i}]"
                ) from None
        vector = tuple(parse_one(i, t) for i, t in enumerate(raw))
        ideal = generated_ideal(algebra, vector)
        shown = args.coords
    _emit(dumps({
        "generator": shown,
        "dimension": ideal.rank,
        "rows": [[scalar_to_json(c) for c in row] for row in ideal.rows],
        "basis_members": [algebra.labels[i] for i in ideal.basis_members()],
    }), args.output)
    return EXIT_OK


def _cmd_minimal(args) -> int:
    oracle = {"auto": None, "on": True, "off": False}[args.oracle]
    _algebra, facts = _load(args.input, oracle=oracle, bound=args.bound)
    report = facts.report()
    minimality = report["minimality"]
    if args.format == "text":
        lines = [f"minimal: {minimality['minimal']}"]
        for key in ("strongly_connected_kernel",
                    "strongly_connected_complement", "weak_division",
                    "connected_kernel", "connected_complement", "oracle"):
            lines.append(f"  {key}: {minimality[key]}")
        for part in ("kernel", "complement"):
            witness = report["subgraphs"][part]["weak_symmetry_witness"]
            if witness:
                lines.append(
                    f"  {part} subgraph weak symmetry fails at edge "
                    f"({witness[0]}, {witness[1]})"
                )
        _emit("\n".join(lines) + "\n", args.output)
    else:
        _emit(dumps(report), args.output)
    return EXIT_OK if minimality["minimal"] else EXIT_FALSE


def _cmd_weakdiv(args) -> int:
    algebra, facts = _load(args.input)
    holds, violations = facts.weak_division
    _emit(dumps(weak_division_json(algebra, facts.table, holds,
                                   violations)), args.output)
    return EXIT_OK if holds else EXIT_FALSE


def _cmd_equiv(args) -> int:
    algebra, facts = _load(args.input)
    columns = map_from_json(_read_json(args.map), algebra.field, algebra.dim)
    f = LinearMap.from_columns(algebra.field, columns)
    ok, witness = is_automorphism(algebra, f)
    result = {
        "automorphism": ok,
        "automorphism_witness": (
            None if witness is None
            else [algebra.labels[witness[0]], algebra.labels[witness[1]]]
        ),
        "basis_bijection": None,
        "graph_isomorphic": None,
        "decomposition_equivalent": None,
    }
    if not ok:
        _emit(dumps(result), args.output)
        return EXIT_FALSE
    bijection = maps_basis_to_basis(f, algebra.labels)
    if bijection is None:
        _emit(dumps(result), args.output)
        return EXIT_FALSE
    result["basis_bijection"] = {
        algebra.labels[j]: algebra.labels[i]
        for j, i in sorted(bijection.items())
    }
    graph, dec = facts.graph, facts.decomposition
    iso = induced_graph_isomorphism(graph, graph, bijection)
    dec_eq = decomposition_equivalence(dec, dec, bijection)
    result["graph_isomorphic"] = iso
    result["decomposition_equivalent"] = dec_eq
    _emit(dumps(result), args.output)
    if not (iso and dec_eq):
        # An automorphism that permutes the basis must transport the
        # graph and the decomposition; anything else is a broken theorem.
        raise InternalInvariantViolation(
            "basis automorphism failed to transport graph structure"
        )
    return EXIT_OK


def _parse_field_arg(prime: Optional[int]) -> FieldSpec:
    if prime is None:
        return FieldSpec.rationals()
    try:
        return FieldSpec.prime(prime)
    except ValueError as exc:
        raise InputDocumentError(str(exc))


def _cmd_corpus(args) -> int:
    if args.action == "list":
        entries = corpus_mod.standard_entries()
        if args.format == "text":
            lines = []
            for entry in entries:
                params = " ".join(f"{k}={v}" for k, v in entry.params.items())
                lines.append(
                    f"{entry.name}{' ' + params if params else ''}: "
                    f"{entry.origin}"
                )
            _emit("\n".join(lines) + "\n", args.output)
        else:
            _emit(dumps([
                {"name": e.name, "params": e.params, "origin": e.origin,
                 "expected": e.expected}
                for e in entries
            ]), args.output)
        return EXIT_OK
    if not args.name:
        raise InputDocumentError("corpus export needs an example name")
    params = {}
    if args.n is not None:
        params["n"] = args.n
    params["field"] = _parse_field_arg(args.prime)
    algebra, split = corpus_mod.build_example(args.name, params)
    _emit(dumps(algebra_to_json(algebra, split)), args.output)
    return EXIT_OK


def _cmd_fuzz(args) -> int:
    field = FieldSpec.prime(args.prime)
    instances = corpus_mod.fuzz_instances(
        args.seed, args.count, max_dim=args.dim, field=field,
        transforms=args.transforms,
    )
    report = {
        "seed": args.seed,
        "count": len(instances),
        "max_dim": args.dim,
        "field": field_to_json(field),
        "transforms": args.transforms,
        "checks_ran": args.check,
        "instances": [],
        "totals": {"reachability_pairs": 0, "weak_division_holds": 0,
                   "minimal": 0},
    }
    for algebra, split in instances:
        facts = _Analysis(algebra, split)
        row = {
            "dimension": algebra.dim,
            "kernel": [algebra.labels[k] for k in split.kernel],
            "table_entries": len(facts.table.entries),
        }
        if args.check:
            stats = facts.cross_validation()
            row["minimal"] = stats["minimal"]
            totals = report["totals"]
            totals["reachability_pairs"] += stats["reachability_pairs"]
            totals["weak_division_holds"] += int(stats["weak_division"])
            totals["minimal"] += int(stats["minimal"])
        report["instances"].append(row)
    _emit(dumps(report), args.output)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leibniz-graphs",
        description="Analyze Leibniz algebras through their associated "
                    "directed graphs (exact arithmetic only).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, with_format=True, formats=("json", "dot", "text")):
        p.add_argument("-o", "--output", metavar="PATH",
                       help="write results to PATH instead of stdout")
        if with_format:
            p.add_argument("--format", choices=formats, default="json",
                           help="output format (default json)")

    p = sub.add_parser("validate", help="parse and fully validate an "
                       "algebra document")
    p.add_argument("input")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("graph", help="emit the associated digraph")
    p.add_argument("input")
    add_common(p)
    p.set_defaults(func=_cmd_graph)

    p = sub.add_parser("subgraph", help="emit one vertex-induced part "
                       "subgraph")
    p.add_argument("input")
    p.add_argument("--part", choices=("kernel", "complement"), required=True)
    add_common(p)
    p.set_defaults(func=_cmd_subgraph)

    p = sub.add_parser("decompose", help="split into orthogonal ideals by "
                       "graph components")
    p.add_argument("input")
    add_common(p, formats=("json", "text"))
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("ideal", help="two-sided ideal generated by a vector")
    p.add_argument("input")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--generator", metavar="LABEL",
                       help="basis vector label")
    group.add_argument("--coords", metavar="C1,C2,...",
                       help="comma-separated coordinates")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_ideal)

    p = sub.add_parser("minimal", help="decide minimality (exit 3 when not "
                       "minimal); json format emits the full analysis report")
    p.add_argument("input")
    p.add_argument("--oracle", choices=("auto", "on", "off"), default="auto",
                   help="run the subset-enumeration oracle (auto: when the "
                        "dimension allows)")
    p.add_argument("--bound", type=int, default=None,
                   help="largest dimension the oracle enumerates (default "
                        f"{DEFAULT_ENUM_BOUND})")
    add_common(p, formats=("json", "text"))
    p.set_defaults(func=_cmd_minimal)

    p = sub.add_parser("weakdiv", help="decide weak division (exit 3 when "
                       "it fails)")
    p.add_argument("input")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_weakdiv)

    p = sub.add_parser("equiv", help="check a linear map as a basis "
                       "automorphism and transport the graph along it")
    p.add_argument("input")
    p.add_argument("--map", required=True, metavar="PATH",
                   help="map document (column-major matrix)")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("corpus", help="list built-in examples or export one")
    p.add_argument("action", choices=("list", "export"))
    p.add_argument("name", nargs="?", help="example name (for export)")
    p.add_argument("--n", type=int, default=None,
                   help="size parameter for parametric families")
    p.add_argument("--prime", type=int, default=None,
                   help="build over GF(p) instead of Q")
    add_common(p, formats=("json", "text"))
    p.set_defaults(func=_cmd_corpus)

    p = sub.add_parser("fuzz", help="generate random valid instances and "
                       "cross-check the graph theory on them")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=20,
                   help="accepted instances to produce (default 20)")
    p.add_argument("--dim", type=int, default=3,
                   help="maximum dimension, at most 4 (default 3)")
    p.add_argument("--prime", type=int, default=5,
                   help="field modulus (default 5)")
    p.add_argument("--transforms", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="enrich with rescalings, permutations, direct sums")
    p.add_argument("--check", action=argparse.BooleanOptionalAction,
                   default=True,
                   help="cross-validate every instance (exit 2 on mismatch)")
    add_common(p, with_format=False)
    p.set_defaults(func=_cmd_fuzz)

    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    # argparse reads a value that starts with "-1," as an option, so each
    # "--coords V" with such a V is passed on as "--coords=V"
    for at in range(len(argv) - 1, 0, -1):
        if argv[at - 1] == "--coords" and re.match(r"-\d", argv[at]):
            argv[at - 1:at + 1] = ["--coords=" + argv[at]]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InternalInvariantViolation as exc:
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except LeibnizGraphsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
