"""The package's public surface: what the benchmark tracer wraps and what
``leibniz_graphs`` exports.

The tracer in ``perfbench/tracer.py`` reports a listed function that the
package no longer has as absent and still exits 0, so a rename or a
removal there would silently drop per-layer metrics; the first test
requires every listed name to resolve.  The export list is frozen so that
adding or removing a public name is a deliberate edit of this file.
"""

from __future__ import annotations

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import leibniz_graphs

ROOT = Path(__file__).resolve().parent.parent
TRACER = ROOT / "perfbench" / "tracer.py"

EXPORTS = [
    "BadBijectionError", "BadParamsError", "BasisSplit", "ComponentPartition",
    "CorpusEntry", "Decomposition", "DiGraph", "DimensionMismatchError",
    "DimensionTooLargeError", "FieldCharUnsupportedError",
    "FieldMismatchError", "FieldSpec", "InputDocumentError",
    "InternalInvariantViolation", "InvalidSplitError", "LeibnizAlgebra",
    "LeibnizGraphsError", "LinearMap", "MinimalityVerdict",
    "MultiplicativeTable", "NotLeibnizError", "NotMonomialError",
    "ShapeViolationError", "SingularMapError", "Subspace",
    "UnknownExampleError", "UnknownVertexError", "analysis_report",
    "build_example", "build_graph", "change_basis", "check_leibniz",
    "check_minimality", "check_weak_division", "cross_validate", "decompose",
    "decomposition_equivalence", "direct_sum", "edge_list_text",
    "enumerate_basis_ideals", "filiform", "five_dim", "fuzz_algebra",
    "fuzz_instances", "generated_ideal", "ideal_closure",
    "induced_graph_isomorphism", "induced_subgraph", "is_automorphism",
    "is_ideal", "is_strongly_connected", "is_weakly_symmetric",
    "leibniz_kernel", "maps_basis_to_basis", "odd_family", "permute_basis",
    "product", "reachable_from", "rescale_basis", "restrict_to_indices",
    "rref", "standard_entries", "strong_components", "to_dot",
    "to_multiplicative", "ud_component", "undirected_components",
    "validate_split", "weak_division_json",
]

# Names that were public once and were removed with no caller outside the
# tests; (module, dotted name).
REMOVED = [
    ("scalars", "FieldSpec.characteristic"),
    ("scalars", "FieldSpec.sub"),
    ("scalars", "Subspace.from_echelon"),
    ("scalars", "Subspace.contains_subspace"),
    ("algebra", "LeibnizAlgebra.unit"),
    ("algebra", "MultiplicativeTable.as_dict"),
    ("algebra", "MultiplicativeTable.to_products"),
    ("algebra", "_mark_verified"),
    ("graphs", "DiGraph.sorted_edges"),
    ("graphs", "ComponentPartition.id_of"),
    ("graphs", "ComponentPartition.as_dict"),
    ("structure", "Decomposition.vertex_sets"),
    ("equivalence", "LinearMap.apply"),
    ("equivalence", "LinearMap.column"),
    ("jsonio", "map_to_json"),
    ("jsonio", "ALGEBRA_SCHEMA_VERSION"),
]


def _resolve(module_name: str, dotted: str):
    """The object at a dotted name inside a package module, or None."""
    owner = importlib.import_module(f"leibniz_graphs.{module_name}")
    for part in dotted.split("."):
        owner = getattr(owner, part, None)
    return owner


def _traced() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracer",
                                                  TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_resolves_in_its_module():
    traced = _traced()
    assert traced
    absent = [f"{layer}.{name}" for layer, names in traced.items()
              for name in names if not callable(_resolve(layer, name))]
    assert absent == []


@pytest.mark.parametrize("module_name, dotted", REMOVED,
                         ids=[f"{m}.{d}" for m, d in REMOVED])
def test_removed_names_stay_removed(module_name, dotted):
    assert _resolve(module_name, dotted) is None


def test_package_exports_are_frozen():
    # a fresh interpreter, so no other test's imports add to the package
    script = ("import json, types, leibniz_graphs as m; print(json.dumps("
              "sorted(n for n, v in vars(m).items() if not n.startswith('_')"
              " and not isinstance(v, types.ModuleType))))")
    env = dict(os.environ)
    src = str(Path(leibniz_graphs.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src,
                                                      env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert json.loads(done.stdout) == sorted(EXPORTS)
