"""The CLI's output on valid documents, frozen by length and digest.

Each case runs one CLI command in process on one of the standard corpus
documents, as exported or with its basis permuted, and compares its exit
code, its stderr and the length and sha256 of its stdout (UTF-8 bytes)
with ``tests/output_contract.json``.  Every subcommand and every
``--format`` runs on every document; ``corpus`` and ``fuzz``, which read
no document, run once per example and once.  The documents are written
with the standard library's ``json.dumps``, so the inputs do not depend
on the package's own emitter.

Documents of moderate size (odd_family(31) and filiform(40) over three
fields, and a distinct-prime rescaling), and one-product mutants of them
that break the identity, run the decision commands; their stdout is kept
in full when it is at most ``FULL_STDOUT_BYTES`` long, so that a failure
shows a diff.

After a deliberate change to an output, rewrite the table with

    PYTHONPATH=src python tests/test_output_contract.py

and review its diff: an entry that changes is a change of behaviour,
an entry that is only added is not.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest

from leibniz_graphs.corpus import (
    filiform,
    odd_family,
    permute_basis,
    rescale_basis,
    standard_entries,
)
from leibniz_graphs.jsonio import algebra_to_json
from leibniz_graphs.scalars import FieldSpec

from test_error_contract import run_case

TABLE = Path(__file__).with_name("output_contract.json")
FULL_STDOUT_BYTES = 1024


def _documents():
    """(name, algebra document) for each corpus entry, plain and with
    its basis in a seeded random order."""
    for seed, entry in enumerate(standard_entries()):
        name = entry.name + "".join(f"-{k}{v}"
                                    for k, v in entry.params.items())
        algebra, split = entry.instantiate()
        yield name, algebra_to_json(algebra, split)
        order = list(range(algebra.dim))
        random.Random(seed).shuffle(order)
        permuted, permuted_split, _ = permute_basis(algebra, split, order)
        yield f"{name}-permuted", algebra_to_json(permuted, permuted_split)


def _commands(doc):
    """(name, argv) for every subcommand and format on doc.json."""
    n = len(doc["labels"])
    yield "validate", ["validate", "doc.json"]
    for fmt in ("json", "dot", "text"):
        yield f"graph-{fmt}", ["graph", "doc.json", "--format", fmt]
        for part in ("kernel", "complement"):
            yield (f"subgraph-{part}-{fmt}",
                   ["subgraph", "doc.json", "--part", part, "--format", fmt])
    for fmt in ("json", "text"):
        yield f"decompose-{fmt}", ["decompose", "doc.json", "--format", fmt]
        yield f"minimal-{fmt}", ["minimal", "doc.json", "--format", fmt]
    yield ("ideal-generator",
           ["ideal", "doc.json", "--generator", doc["labels"][-1]])
    # one "=" argument, so argparse does not read "-1,..." as an option
    coords = ",".join(str(i % 3 - 1) for i in range(n))
    yield "ideal-coords", ["ideal", "doc.json", f"--coords={coords}"]
    yield "weakdiv", ["weakdiv", "doc.json"]
    yield "equiv-identity", ["equiv", "doc.json", "--map", "map.json"]


def _plain_commands(doc):
    """(name, argv) for the option variants, run on the unpermuted
    documents only: the oracle switch and bound of minimal, ideal by
    every label and by the separate-argument form of --coords, and equiv
    with the map
    that moves basis vector j to j + n // 2 (mod n), which swaps the two
    copies of five_doubled and is no automorphism of the others."""
    for fmt in ("json", "text"):
        for oracle in ("on", "off"):
            yield (f"minimal-oracle-{oracle}-{fmt}",
                   ["minimal", "doc.json", "--oracle", oracle,
                    "--format", fmt])
        yield (f"minimal-bound3-{fmt}",
               ["minimal", "doc.json", "--bound", "3", "--format", fmt])
    for label in doc["labels"]:
        yield f"ideal-generator-{label}", ["ideal", "doc.json",
                                           "--generator", label]
    coords = ",".join(str(i % 3 - 1) for i in range(len(doc["labels"])))
    yield "ideal-coords-separate", ["ideal", "doc.json", "--coords", coords]
    yield "equiv-rotation", ["equiv", "doc.json", "--map", "rotation.json"]


def _unit_matrix(images):
    """The map document whose column j is the unit vector at images[j]."""
    n = len(images)
    return {"matrix": [["1" if i == image else "0" for i in range(n)]
                       for image in images]}


def cases():
    """Every case as (name, argv, {file name: text})."""
    for doc_name, doc in _documents():
        n = len(doc["labels"])
        files = {"doc.json": json.dumps(doc),
                 "map.json": json.dumps(_unit_matrix(range(n)))}
        for command, argv in _commands(doc):
            yield f"{doc_name}:{command}", argv, files
        if doc_name.endswith("-permuted"):
            continue
        rotation = [(j + n // 2) % n for j in range(n)]
        files = dict(files, **{"rotation.json":
                               json.dumps(_unit_matrix(rotation))})
        for command, argv in _plain_commands(doc):
            yield f"{doc_name}:{command}", argv, files
        # without "kernel" the parse computes the kernel ideal itself
        files = {"doc.json": json.dumps(dict(
            (key, value) for key, value in doc.items() if key != "kernel"))}
        for command in ("validate", "minimal", "weakdiv", "decompose"):
            yield (f"{doc_name}-no-kernel:{command}",
                   [command, "doc.json"], files)
    for fmt in ("json", "text"):
        yield f"corpus-list-{fmt}", ["corpus", "list", "--format", fmt], {}
    for entry in standard_entries():
        argv = ["corpus", "export", entry.name]
        if "n" in entry.params:
            argv += ["--n", str(entry.params["n"])]
        yield "corpus-export-" + "-".join(argv[2:]), argv, {}
    yield ("fuzz", ["fuzz", "--seed", "3", "--count", "6", "--dim", "4",
                    "--prime", "7"], {})
    for seed in ("1", "2"):
        for flag in ("--no-check", "--no-transforms"):
            yield (f"fuzz-seed{seed}{flag[1:]}",
                   ["fuzz", "--seed", seed, "--count", "6", "--dim", "4",
                    "--prime", "7", flag], {})


def _primes(count: int) -> list:
    primes = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return primes


def _moderate_documents():
    """(name, algebra document) for odd_family(31) and filiform(40) over
    Q, GF(101) and GF(998244353), and for odd_family(31) over Q with each
    basis vector v_i rescaled to v_i / p_i for distinct primes p_i."""
    for field_name, field in (("Q", FieldSpec.rationals()),
                              ("GF101", FieldSpec.prime(101)),
                              ("GF998244353", FieldSpec.prime(998244353))):
        yield (f"odd_family-n31-{field_name}",
               algebra_to_json(*odd_family(31, field)))
        yield (f"filiform-n40-{field_name}",
               algebra_to_json(*filiform(40, field)))
    algebra, split = odd_family(31)
    diag = [Fraction(1, p) for p in _primes(algebra.dim)]
    yield "odd_family-n31-Q-primes", algebra_to_json(
        *rescale_basis(algebra, split, diag))


def _identity_breakers(name: str, doc: dict):
    """Three (name, document) mutants of doc, each with one product added
    at a seeded pair that doc leaves zero, with coefficient one and a
    seeded output.  On these documents every such addition breaks the
    identity, which each entry's stderr records."""
    rng = random.Random(name)
    labels = doc["labels"]
    taken = {(entry["l"], entry["r"]) for entry in doc["products"]}
    one = "1" if doc["field"] == "Q" else 1
    for number in range(3):
        while True:
            left, right = rng.choice(labels), rng.choice(labels)
            if (left, right) not in taken:
                break
        out = rng.choice(labels)
        added = {"l": left, "r": right, "out": out, "c": one}
        yield (f"added{number}-{left}-{right}-{out}",
               dict(doc, products=doc["products"] + [added]))


def moderate_cases():
    """Every moderate-size case as (name, argv, {file name: text})."""
    for doc_name, doc in _moderate_documents():
        files = {"doc.json": json.dumps(doc)}
        for command in ("validate", "minimal", "weakdiv", "decompose"):
            yield (f"moderate-{doc_name}:{command}",
                   [command, "doc.json"], files)
        for mutant_name, mutant in _identity_breakers(doc_name, doc):
            files = {"doc.json": json.dumps(mutant)}
            for command in ("validate", "minimal"):
                yield (f"moderate-{doc_name}-{mutant_name}:{command}",
                       [command, "doc.json"], files)


def observe(directory: Path, argv, files, full: bool = False) -> dict:
    """Run one case and reduce its stdout to length and digest, or, with
    ``full``, keep a stdout of at most FULL_STDOUT_BYTES as it is."""
    result = run_case(directory, argv, files)
    out = result["stdout"].encode("utf-8")
    if full and len(out) <= FULL_STDOUT_BYTES:
        return {"exit": result["exit"], "stderr": result["stderr"],
                "stdout": result["stdout"]}
    return {
        "exit": result["exit"],
        "stderr": result["stderr"],
        "stdout_length": len(out),
        "stdout_sha256": hashlib.sha256(out).hexdigest(),
    }


CASES = ([(name, argv, files, False) for name, argv, files in cases()]
         + [(name, argv, files, True)
            for name, argv, files in moderate_cases()])


@pytest.fixture(scope="module")
def table():
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_every_case_is_in_the_table(table):
    names = [name for name, _argv, _files, _full in CASES]
    assert len(names) == len(set(names))
    assert sorted(names) == sorted(table)


@pytest.mark.parametrize("name, argv, files, full", CASES,
                         ids=[case[0] for case in CASES])
def test_output_contract(name, argv, files, full, table, tmp_path):
    assert observe(tmp_path, argv, files, full) == table[name]


if __name__ == "__main__":
    frozen = {}
    for name, argv, files, full in CASES:
        with tempfile.TemporaryDirectory() as scratch:
            frozen[name] = observe(Path(scratch), argv, files, full)
    TABLE.write_text(json.dumps(frozen, indent=2, ensure_ascii=False) + "\n",
                     encoding="utf-8")
    print(f"wrote {len(frozen)} cases to {TABLE}", file=sys.stderr)
