"""Mutation gate: the tests must tell each broken fast route from a
working one.

Each mutant in ``tests/mutants.json`` names a module of the package, an
exact text that must occur in it once, its replacement, and the test
files that must fail once the replacement is made.  The runner first
runs every named test file on an unmodified copy of ``src/`` (they must
pass there), then, for each mutant, copies ``src/`` to a temporary
directory, applies the mutant and runs its tests against the copy in a
subprocess.  A mutant whose tests pass has survived.

    python tests/mutation_gate.py            # every mutant
    python tests/mutation_gate.py NAME ...   # the named mutants

The exit status is 1 when a mutant survives, when its text is not found
exactly once, or when the tests fail on the unmodified copy.  The module
is named so that pytest does not collect it, and it uses only the
standard library.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MUTANTS = Path(__file__).with_name("mutants.json")
TIMEOUT_S = 600


def run_tests(src: Path, tests) -> tuple:
    """(passed, seconds) for pytest on ``tests`` with ``src`` imported."""
    env = dict(os.environ, PYTHONPATH=str(src), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-x",
             "-p", "no:cacheprovider", *tests],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL, timeout=TIMEOUT_S)
        passed = result.returncode == 0
    except subprocess.TimeoutExpired:
        passed = False  # a test that hangs does not pass
    return passed, time.perf_counter() - start


def copy_src(directory: Path) -> Path:
    src = directory / "src"
    shutil.copytree(ROOT / "src", src,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return src


def apply(src: Path, mutant: dict) -> None:
    path = src / "leibniz_graphs" / mutant["file"]
    text = path.read_text(encoding="utf-8")
    found = text.count(mutant["find"])
    if found != 1:
        raise ValueError(f"{mutant['name']}: the text to replace occurs "
                         f"{found} times in {mutant['file']}, not once")
    path.write_text(text.replace(mutant["find"], mutant["replace"]),
                    encoding="utf-8")


def main(names) -> int:
    mutants = json.loads(MUTANTS.read_text(encoding="utf-8"))
    unknown = set(names) - {m["name"] for m in mutants}
    if unknown:
        print(f"unknown mutants: {sorted(unknown)}", file=sys.stderr)
        return 1
    if names:
        mutants = [m for m in mutants if m["name"] in names]
    tests = sorted({t for m in mutants for t in m["tests"]})
    with tempfile.TemporaryDirectory() as scratch:
        passed, seconds = run_tests(copy_src(Path(scratch)), tests)
    print(f"unmodified: {'pass' if passed else 'FAIL'} ({seconds:.1f} s)")
    if not passed:
        return 1
    survivors = []
    for mutant in mutants:
        with tempfile.TemporaryDirectory() as scratch:
            src = copy_src(Path(scratch))
            try:
                apply(src, mutant)
            except ValueError as exc:
                print(exc)
                survivors.append(mutant["name"])
                continue
            passed, seconds = run_tests(src, mutant["tests"])
        verdict = "SURVIVED" if passed else "killed"
        print(f"{mutant['name']}: {verdict} ({seconds:.1f} s)")
        if passed:
            survivors.append(mutant["name"])
    print(f"{len(mutants) - len(survivors)} of {len(mutants)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
