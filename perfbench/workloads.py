"""The four seeded workloads: inputs, in-process operations, CLI commands
and the output checks.

Every input derives from the workload seed.  Documents come from the
package's public builders, disguised by a seeded ``rescale_basis`` and
``permute_basis``; the large tables of ``graph-scale`` come from closed
forms.  The program under test receives only the finished documents or
tables.  Expected answers come from what the generator knows (the
family's verdicts, the closed forms) and from a small graph reference in
this file that shares no code with the package.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from leibniz_graphs import (algebra as algebra_mod, corpus, equivalence,
                            graphs, jsonio, structure)
from leibniz_graphs.scalars import FieldSpec

Q = FieldSpec.rationals()
LARGE_PRIMES = (998244353, 1000000007, 1000000009, 2147483647)
FUZZ_PRIMES = (5, 7, 11, 13)
ORACLE_DIM = 16  # the package's default subset-enumeration bound
# Disguised copies of each document: the seeded scales and permutation
# change an operation's cost, and copies average over them.
DENSE_COPIES = 2


class CheckFailed(Exception):
    """An operation returned a wrong output or exit code."""


def check(condition: bool, what: str) -> None:
    if not condition:
        raise CheckFailed(what)


@dataclass
class Item:
    """One input of a workload and everything needed to check its output."""

    name: str
    dim: int
    facts: dict
    doc: dict | None = None
    path: str | None = None
    extra: dict = field(default_factory=dict)


@dataclass
class Command:
    """One CLI invocation (arguments after the program name)."""

    argv: list
    expect_exit: int
    check_stdout: object = None  # callable(str) -> None, raises CheckFailed


@dataclass
class Inputs:
    items: list
    commands: list
    verdict_mix: dict


# -- independent reference ------------------------------------------------

def reference_facts(doc: dict) -> dict:
    """Facts implied by a document's products, computed on its digraph
    (both factors of a nonzero product point at the product) by plain
    breadth-first search."""
    labels = doc["labels"]
    index = {lab: i for i, lab in enumerate(labels)}
    n = len(labels)
    succ = [set() for _ in range(n)]
    products = {}
    for p in doc["products"]:
        i, j, k = index[p["l"]], index[p["r"]], index[p["out"]]
        succ[i].add(k)
        succ[j].add(k)
        products[(i, j)] = (k, p["c"])
    kernel = {index[lab] for lab in doc.get("kernel", ())}
    parts = (kernel, set(range(n)) - kernel)

    def reach(part, v):
        seen, todo = {v}, [v]
        while todo:
            for w in succ[todo.pop()]:
                if w in part and w not in seen:
                    seen.add(w)
                    todo.append(w)
        return seen

    def strongly_connected(part):
        return all(reach(part, v) == part for v in part)

    def weakly_symmetric(part):
        return all(a in reach(part, b)
                   for a in part for b in succ[a] if b in part)

    group = list(range(n))

    def find(v):
        while group[v] != v:
            v = group[v]
        return v

    for a in range(n):
        for b in succ[a]:
            ra, rb = find(a), find(b)
            group[max(ra, rb)] = min(ra, rb)
    classes = {}
    for v in range(n):
        classes.setdefault(find(v), []).append(labels[v])
    return {
        "kernel": [labels[k] for k in sorted(kernel)],
        "minimal": all(strongly_connected(p) for p in parts),
        "weak_division": all(weakly_symmetric(p) for p in parts),
        "components": [classes[r] for r in sorted(classes)],
        "edge_count": sum(len(s) for s in succ),
        "products": products,
    }


def permutation_is_automorphism(products: dict, images: list) -> bool:
    """Whether v_j -> v_images[j] preserves every structure constant."""
    return all(products.get((images[i], images[j])) == (images[k], c)
               for (i, j), (k, c) in products.items())


# -- generation helpers ---------------------------------------------------

def disguise(rng: random.Random, built):
    """Rescale and permute a built (algebra, split) by seeded choices."""
    algebra, split = built
    n = algebra.dim
    if algebra.field.is_rationals:
        # Small numerators and denominators keep the cost of rational
        # arithmetic nearly the same for every seed.
        diag = [Fraction(rng.choice((-1, 1)) * rng.randint(1, 3),
                         rng.randint(1, 3)) for _ in range(n)]
    else:
        diag = [rng.randrange(1, algebra.field.p) for _ in range(n)]
    algebra, split = corpus.rescale_basis(algebra, split, diag)
    order = list(range(n))
    rng.shuffle(order)
    algebra, split, _position = corpus.permute_basis(algebra, split, order)
    return algebra, split


def document_item(name: str, doc: dict, known: dict | None,
                  workdir: Path) -> Item:
    """An item for a document; ``known`` holds the family's verdicts,
    which the reference must reproduce."""
    facts = reference_facts(doc)
    for key, value in (known or {}).items():
        if facts[key] != value:
            raise RuntimeError(f"generator: {name} has {key}={facts[key]}, "
                               f"the family has {value}")
    return Item(name, len(doc["labels"]), facts, doc, write_doc(doc, workdir))


def write_doc(doc: dict, workdir: Path) -> str:
    path = workdir / f"{len(list(workdir.iterdir())):03d}.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


def verdict_mix(items) -> dict:
    mix: dict = {}
    for item in items:
        key = (f"minimal={item.facts['minimal']},"
               f"weak_division={item.facts['weak_division']}")
        mix[key] = mix.get(key, 0) + 1
    return dict(sorted(mix.items()))


MINIMAL = {"minimal": True, "weak_division": True}
NOT_MINIMAL_DIVIDES = {"minimal": False, "weak_division": True}
NOT_MINIMAL_NO_DIVISION = {"minimal": False, "weak_division": False}


def check_json_fields(expected: dict):
    """A stdout check: the JSON output has these (dotted) fields."""
    def run(stdout: str) -> None:
        doc = json.loads(stdout)
        for dotted, value in expected.items():
            node = doc
            for part in dotted.split("."):
                node = node[part]
            check(node == value, f"{dotted}={node!r}, expected {value!r}")
    return run


def check_line_count(lines: int):
    def run(stdout: str) -> None:
        got = stdout.count("\n")
        check(got == lines, f"{got} output lines, expected {lines}")
    return run


# -- dense-validate -------------------------------------------------------

def dense_validate(seed: int, workdir: Path) -> Inputs:
    """Dimension 15-17 documents: the identity check, the kernel closure
    and field arithmetic do almost all the work; no oracle runs."""
    rng = random.Random(f"dense-validate-{seed}")
    gfp = FieldSpec.prime(rng.choice(LARGE_PRIMES))
    built = [
        ("odd_family(15)/Q", corpus.odd_family(15), MINIMAL),
        (f"odd_family(17)/GF({gfp.p})", corpus.odd_family(17, gfp), MINIMAL),
        ("filiform(15)/Q", corpus.filiform(15), NOT_MINIMAL_NO_DIVISION),
    ]
    docs = []
    for copy in range(DENSE_COPIES):
        docs += [(f"{name}#{copy}",
                  jsonio.algebra_to_json(*disguise(rng, pair)), known)
                 for name, pair, known in built]
        empty = [f"z{i}" for i in range(16)]
        rng.shuffle(empty)
        docs.append((f"no-products(16)/Q#{copy}",
                     {"field": "Q", "labels": empty, "products": []},
                     NOT_MINIMAL_DIVIDES))
    items = []
    for name, doc, known in docs:
        item = document_item(name, doc, known, workdir)
        field_ = jsonio.field_from_json(doc["field"])
        images = list(range(item.dim))
        rng.shuffle(images)
        item.extra["maps"] = [
            (equivalence.LinearMap.identity(field_, item.dim),
             list(range(item.dim)), True),
            (equivalence.LinearMap.permutation(field_, images), images,
             permutation_is_automorphism(item.facts["products"], images)),
        ]
        items.append(item)
    # The CLI runs on the first copy of each built document only: a CLI
    # command costs as much as an operation, and the run must fit whole
    # cycles of both.
    cli_items = items[:len(built)]
    rng.shuffle(items)
    commands = []
    for item in cli_items:
        facts = item.facts
        commands.append(Command(["validate", item.path], 0, check_json_fields(
            {"kernel": facts["kernel"], "dimension": item.dim})))
        commands.append(Command(["decompose", item.path], 0,
                                check_json_fields({"parts": [
                                    {"dimension": len(c), "vertices": c}
                                    for c in facts["components"]]})))
    return Inputs(items, commands, verdict_mix(items))


def dense_validate_op(item: Item) -> None:
    algebra, split, table = jsonio.algebra_from_json(item.doc)
    kernel = [algebra.labels[k] for k in split.kernel]
    check(kernel == item.facts["kernel"], f"kernel {kernel}")
    dec = structure.decompose(algebra, table, split)
    parts = [list(p.labels) for p in dec.parts]
    check(parts == item.facts["components"], "decomposition parts")
    for linear_map, images, expected in item.extra["maps"]:
        ok, _witness = equivalence.is_automorphism(algebra, linear_map)
        check(ok == expected, f"is_automorphism={ok}, expected {expected}")
        bijection = equivalence.maps_basis_to_basis(linear_map,
                                                    algebra.labels)
        check(bijection == dict(enumerate(images)), "maps_basis_to_basis")
    jsonio.dumps({
        "ok": True,
        "field": jsonio.field_to_json(algebra.field),
        "dimension": algebra.dim,
        "kernel": kernel,
        "table_entries": len(table.entries),
        "parts": [{"dimension": p.dim, "vertices": list(p.labels)}
                  for p in dec.parts],
    })


# -- oracle-minimal -------------------------------------------------------

def oracle_minimal(seed: int, workdir: Path) -> Inputs:
    """Dimension 7-10 documents on both sides of each theorem: the
    subset-enumeration and closure oracles do most of the work."""
    rng = random.Random(f"oracle-minimal-{seed}")
    gfp = FieldSpec.prime(rng.choice(LARGE_PRIMES))
    # (name, built pair, verdicts, disguised copies).  The permutation
    # decides where is_ideal first fails, and so the cost of the subset
    # enumeration; copies average over it.  odd_family(9) and ud_plus_five
    # cost about the same, and with 4 + 3 dearer copies above them and 6
    # cheaper ones below, both the median and the tail percentile (ten
    # samples beyond) of one cycle fall among their twelve copies rather
    # than between two families, where a seed would move them most.
    built = [
        ("odd_family(7)/Q", corpus.odd_family(7), MINIMAL, 6),
        (f"odd_family(9)/GF({gfp.p})", corpus.odd_family(9, gfp), MINIMAL,
         6),
        ("filiform(9)/Q", corpus.filiform(9), NOT_MINIMAL_NO_DIVISION, 4),
        ("five_doubled/Q", corpus.build_example("five_doubled"),
         NOT_MINIMAL_DIVIDES, 3),
        ("ud_plus_five/Q", corpus.build_example("ud_plus_five"),
         NOT_MINIMAL_NO_DIVISION, 6),
    ]
    copies = [[document_item(f"{name}#{copy}",
                             jsonio.algebra_to_json(*disguise(rng, pair)),
                             known, workdir)
               for copy in range(count)]
              for name, pair, known, count in built]
    items = [item for family in copies for item in family]
    rng.shuffle(items)
    # The CLI runs on one copy of three families, which between them give
    # both exit codes of both commands; a run fits two whole cycles.
    commands = []
    for item in (copies[1][0], copies[2][0], copies[3][0]):
        facts = item.facts
        commands.append(Command(
            ["minimal", item.path], 0 if facts["minimal"] else 3,
            check_json_fields({"minimality.minimal": facts["minimal"],
                               "minimality.oracle": facts["minimal"],
                               "weak_division.holds": facts["weak_division"],
                               "kernel": facts["kernel"]})))
        commands.append(Command(
            ["weakdiv", item.path], 0 if facts["weak_division"] else 3,
            check_json_fields({"holds": facts["weak_division"]})))
    return Inputs(items, commands, verdict_mix(items))


def check_report(report: dict, item: Item) -> None:
    facts = item.facts
    check(report["kernel"] == facts["kernel"], "report kernel")
    minimality = report["minimality"]
    check(minimality["minimal"] == facts["minimal"], "minimal verdict")
    check(report["weak_division"]["holds"] == facts["weak_division"],
          "weak division verdict")
    check(report["components"] == facts["components"], "components")
    if item.dim <= ORACLE_DIM:
        check(minimality["oracle"] is not None, "oracle did not run")
        check(minimality["oracle"] == facts["minimal"], "oracle verdict")


def oracle_minimal_op(item: Item) -> None:
    algebra, split, _table = jsonio.algebra_from_json(item.doc)
    report = structure.analysis_report(algebra, split)
    check_report(report, item)
    jsonio.dumps(report)


# -- fuzz-stream ----------------------------------------------------------

# Instances per prime and dimension.  A fixed mix keeps the median
# operation inside one dimension's cost class for every seed.
FUZZ_QUOTA = {1: 180, 2: 180, 3: 120, 4: 60}
# A stream this long meets every quota for nearly every seed (it holds
# about 85 instances of dimension 4), so set-up draws one stream per
# prime and costs the same for every seed.
FUZZ_STREAM = 1200


def fuzz_quota(rng: random.Random, field_: FieldSpec) -> list:
    """The first instances of each dimension from seeded fuzz streams,
    in stream order, until every quota is met."""
    need = dict(FUZZ_QUOTA)
    picked = []
    while any(need.values()):
        for pair in corpus.fuzz_instances(rng.randrange(1 << 30),
                                          FUZZ_STREAM,
                                          max_dim=4, field=field_):
            if need[pair[0].dim]:
                need[pair[0].dim] -= 1
                picked.append(pair)
    return picked


def fuzz_stream(seed: int, workdir: Path) -> Inputs:
    """Thousands of instances of dimension 1-4 over three primes: fixed
    cost per call, schema validation and CLI start-up dominate."""
    rng = random.Random(f"fuzz-stream-{seed}")
    items = []
    for p in sorted(rng.sample(FUZZ_PRIMES, 3)):
        for number, pair in enumerate(fuzz_quota(rng, FieldSpec.prime(p))):
            doc = jsonio.algebra_to_json(*pair)
            facts = reference_facts(doc)
            items.append(Item(f"fuzz/GF({p})#{number}", len(doc["labels"]),
                              facts, doc))
    commands = [Command(["fuzz", "--seed", str(rng.randrange(1000)),
                         "--dim", "4"], 0,
                        check_json_fields({"count": 20, "max_dim": 4}))]
    for item in rng.sample(items, 4):
        item.path = write_doc(item.doc, workdir)
        commands.append(Command(
            ["minimal", item.path], 0 if item.facts["minimal"] else 3,
            check_json_fields({"minimality.minimal": item.facts["minimal"],
                               "kernel": item.facts["kernel"]})))
    return Inputs(items, commands, verdict_mix(items))


def fuzz_stream_op(item: Item) -> None:
    algebra, split, _table = jsonio.algebra_from_json(item.doc)
    stats = structure.cross_validate(algebra, split)
    check(stats["minimal"] == item.facts["minimal"], "cross_validate minimal")
    check(stats["weak_division"] == item.facts["weak_division"],
          "cross_validate weak division")
    report = structure.analysis_report(algebra, split)
    check_report(report, item)
    jsonio.dumps(report)


# -- graph-scale ----------------------------------------------------------

@dataclass
class Block:
    """A table in closed form, with the graph facts the form implies."""

    labels: tuple
    kernel: tuple    # local indices
    entries: list    # (i, j, k, integer coefficient)
    facts: dict      # edges, kernel_edges, complement_edges, sccs, components
    reach: object    # local vertex -> size of its reachable set
    strong: tuple    # (kernel subgraph strongly connected, complement ...)


def odd_block(n: int) -> Block:
    """odd_family(n): [x_k,e] = k(k+3-n) x_{k-1}, [x_k,h] = (n-4-2k) x_k,
    [x_k,f] = x_{k+1}, on top of the three-dimensional simple Lie part."""
    m = n - 4
    labels = ("e", "f", "h") + tuple(f"x_{k}" for k in range(m + 1))
    e, f, h, x = 0, 1, 2, 3
    entries = [(e, f, h, 1), (f, e, h, -1), (e, h, e, 2), (h, e, e, -2),
               (h, f, f, 2), (f, h, f, -2)]
    entries += [(x + k, e, x + k - 1, k * (k + 3 - n)) for k in range(1, m + 1)]
    entries += [(x + k, h, x + k, n - 4 - 2 * k) for k in range(m + 1)]
    entries += [(x + k, f, x + k + 1, 1) for k in range(m)]
    facts = {"edges": 6 * n - 16, "kernel_edges": 3 * m + 1,
             "complement_edges": 6, "sccs": 2, "components": 1}
    return Block(labels, tuple(range(3, n)), entries, facts,
                 lambda v: m + 1 if v >= 3 else n, (True, True))


def filiform_block(n: int) -> Block:
    """filiform(n): [e_i, e_1] = e_{i+1}; a path with a fan out of e_1."""
    labels = tuple(f"e_{i}" for i in range(1, n + 1))
    entries = [(i, 0, i + 1, 1) for i in range(n - 1)]
    facts = {"edges": 2 * n - 3, "kernel_edges": n - 2,
             "complement_edges": 0, "sccs": n, "components": 1}
    return Block(labels, tuple(range(1, n)), entries, facts,
                 lambda v: n - v, (n <= 2, True))


def direct_sum_blocks(a: Block, b: Block) -> Block:
    """The orthogonal direct sum; colliding labels of the second summand
    get primes appended, as ``corpus.direct_sum`` does."""
    taken = set(a.labels)
    renamed = []
    for lab in b.labels:
        while lab in taken:
            lab += "'"
        taken.add(lab)
        renamed.append(lab)
    na = len(a.labels)
    entries = a.entries + [(i + na, j + na, k + na, c)
                           for i, j, k, c in b.entries]
    facts = {key: a.facts[key] + b.facts[key] for key in a.facts}
    kernel = a.kernel + tuple(k + na for k in b.kernel)
    sizes = ((len(a.kernel), len(b.kernel)),
             (na - len(a.kernel), len(renamed) - len(b.kernel)))
    strong = tuple(
        sum(s) <= 1 or (s[0] == 0 and sb) or (s[1] == 0 and sa)
        for s, sa, sb in zip(sizes, a.strong, b.strong))
    return Block(a.labels + tuple(renamed), kernel, entries, facts,
                 lambda v: a.reach(v) if v < na else b.reach(v - na), strong)


def block_table(block: Block, order=None):
    """The MultiplicativeTable and split of a block, with new vertex t
    being old vertex order[t]."""
    n = len(block.labels)
    order = list(range(n)) if order is None else order
    position = {old: new for new, old in enumerate(order)}
    entries = sorted(((position[i], position[j]), (position[k], Q.scalar(c)))
                     for i, j, k, c in block.entries)
    labels = tuple(block.labels[old] for old in order)
    table = algebra_mod.MultiplicativeTable(Q, labels, tuple(entries))
    split = algebra_mod.BasisSplit.of(n, (position[k] for k in block.kernel))
    return table, split


def check_closed_forms() -> None:
    """The closed forms must reproduce the builders' tables exactly."""
    for n in (9, 15):
        for block, built in ((odd_block(n), corpus.odd_family(n)),
                             (filiform_block(n), corpus.filiform(n))):
            if block_table(block) != (algebra_mod.to_multiplicative(
                    *built, validate=False), built[1]):
                raise RuntimeError(f"closed form differs from builder, n={n}")
    summed = corpus.direct_sum(*corpus.odd_family(9), *corpus.filiform(9))
    if block_table(direct_sum_blocks(odd_block(9), filiform_block(9))) != (
            algebra_mod.to_multiplicative(*summed, validate=False),
            summed[1]):
        raise RuntimeError("closed-form direct sum differs from direct_sum")


REACH_SAMPLES = 4


def graph_scale(seed: int, workdir: Path) -> Inputs:
    """Tables with 1201-4001 basis vectors: the only workload where the
    graph layer and its emitters carry the cost."""
    rng = random.Random(f"graph-scale-{seed}")
    # The emitters look labels up by linear search, so an operation's cost
    # depends on where the seeded permutation puts e, f and h, which are
    # endpoints of about half the edges.  Four differently permuted copies of
    # one table hold both the median and the tail percentile (three
    # cycles of five inputs; ten samples beyond the tail) and average over
    # that; the large direct sum stays a single table.
    middle = odd_block(1201)
    blocks = [(f"odd_family(1201)#{copy}", middle) for copy in range(4)]
    blocks.append(("odd_family(2001)+filiform(2000)",
                   direct_sum_blocks(odd_block(2001), filiform_block(2000))))
    items = []
    for name, block in blocks:
        n = len(block.labels)
        order = list(range(n))
        rng.shuffle(order)
        table, split = block_table(block, order)
        samples = [rng.randrange(n) for _ in range(REACH_SAMPLES)]
        facts = dict(block.facts, strong=block.strong,
                     reach=[block.reach(order[t]) for t in samples])
        items.append(Item(name, n, facts,
                          extra={"table": table, "split": split,
                                 "samples": samples}))
    gfp = FieldSpec.prime(rng.choice(LARGE_PRIMES))
    commands = []
    for name, pair in (("odd_family(9)/Q", corpus.odd_family(9)),
                       (f"filiform(9)/GF({gfp.p})",
                        corpus.filiform(9, gfp))):
        item = document_item(name, jsonio.algebra_to_json(*disguise(rng, pair)),
                             None, workdir)
        edges = item.facts["edge_count"]
        commands.append(Command(["graph", item.path, "--format", "dot"], 0,
                                check_line_count(item.dim + edges + 2)))
        commands.append(Command(["graph", item.path, "--format", "text"], 0,
                                check_line_count(edges)))
    return Inputs(items, commands, {})


def graph_scale_op(item: Item) -> None:
    facts = item.facts
    table, split = item.extra["table"], item.extra["split"]
    graph = graphs.build_graph(table, split)
    check(len(graph.edges) == facts["edges"], "edge count")
    sub_k = graphs.induced_subgraph(graph, "kernel", split)
    sub_j = graphs.induced_subgraph(graph, "complement", split)
    check(len(sub_k.edges) == facts["kernel_edges"], "kernel edge count")
    check(len(sub_j.edges) == facts["complement_edges"],
          "complement edge count")
    check(graphs.strong_components(graph).count == facts["sccs"], "SCC count")
    check(graphs.undirected_components(graph).count == facts["components"],
          "component count")
    symmetric, _witness = graphs.is_weakly_symmetric(graph)
    check(not symmetric, "weak symmetry of the whole graph")
    strong = (graphs.is_strongly_connected(sub_k),
              graphs.is_strongly_connected(sub_j))
    check(strong == facts["strong"], "strong connectivity of the parts")
    reach = [len(graphs.reachable_from(graph, v))
             for v in item.extra["samples"]]
    check(reach == facts["reach"], "reachable set sizes")
    dot = graphs.to_dot(graph, kernel_vertices=split.kernel)
    check(dot.count("\n") == item.dim + facts["edges"] + 2, "DOT line count")
    text = graphs.edge_list_text(graph)
    check(text.count("\n") == facts["edges"], "edge list line count")


@dataclass(frozen=True)
class Workload:
    name: str
    generate: object  # (seed, workdir) -> Inputs
    op: object        # Item -> None, raises on a wrong output
    self_check: object = None  # checks the generator against the library


WORKLOADS = {w.name: w for w in (
    Workload("dense-validate", dense_validate, dense_validate_op),
    Workload("oracle-minimal", oracle_minimal, oracle_minimal_op),
    Workload("fuzz-stream", fuzz_stream, fuzz_stream_op),
    Workload("graph-scale", graph_scale, graph_scale_op, check_closed_forms),
)}
