"""Benchmark of the leibniz-graphs library and its CLI.

Run from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

One process is one caller in a closed loop: each operation starts when the
previous one has finished.  A run first sets up its inputs several times,
each from a collected heap (``setup_s`` is the import time plus the median
set-up), freezes the inputs out of the garbage collector, runs one warm-up
operation, then spends half of ``--seconds`` on in-process operations
through the public library API and half on CLI subprocesses
(``python -m leibniz_graphs.cli``), which stay cold because users pay
start-up on every command.  Both budgets are paced seconds (see
below).  The two alternate a cycle over their inputs at
a time, so that each samples the whole run; each stops at the end of a
whole cycle and after at least eleven samples, so that the tail
percentile (the highest with ten samples beyond it) exists.  Every
operation's output is checked; CLI stdout must equal the same command run
in-process through ``cli.main``.  ``ops_per_s`` is the number of inputs
over the sum of each input's median operation time.

Timings are paced.  The host this benchmark was built on is shared, and
its speed drifts by half over tens of seconds, CPU time included, so raw
wall times of runs of the same code disagree by more than any useful
bound.  A fixed pure-Python reference loop is therefore timed at least
every ``PACE_EVERY_S`` seconds, and every timed interval (each set-up,
operation and CLI command) is scaled by ``NOMINAL_PACE_S`` over the median
of the latest ``PACE_WINDOW`` reference times, which for a call longer
than ``PACE_EVERY_S`` include one timed right after it: the reported
seconds are
seconds at the pace where the reference loop takes ``NOMINAL_PACE_S``.
The reference loop does not touch the package, so a change to the
program moves the paced times as it moves the raw ones.  Raw wall-clock
medians are on the info line next to the paced ones.

With ``--trace 1`` the run instead sets up once, traced, then times one
untraced and one traced pass over the inputs (each in-process operation
once, each CLI command once through ``cli.main``).  It reports per-layer
calls and self time from an external tracer, totalled over the traced
set-up and pass, the tracing overhead (traced minus untraced pass), CLI
start-up (``cli.import_s``) and CLI overhead (``cli.overhead_s``,
subprocess wall time minus in-process time of the same command, median
over the commands).

The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
commit, the Python version, ``nproc``, the sample counts and the tail
percentiles.  ``--workload all`` runs each workload in its own process
and prints every metric by name with its unit.  The exit code is
non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
SETUP_REPEATS = 3
MIN_SAMPLES = 11
IMPORT_PROBES = 5
CHILD_TIMEOUT_S = 120
PEAK_MARK = "perfbench-peak "
PACE_EVERY_S = 0.1
PACE_WINDOW = 3
# About the reference loop's time on an unloaded core (Intel Xeon cloud
# VM, CPython 3.11); it only sets the unit of the paced seconds.
NOMINAL_PACE_S = 0.005


class Outcomes:
    """Operations attempted and failed, with the first failures' reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list = []

    def record(self, ok: bool, reason: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.reasons) < 5:
                self.reasons.append(reason)
        return ok

    def call(self, fn, *args) -> bool:
        """Run one operation; a raise or a failed check counts as failed."""
        try:
            fn(*args)
        except Exception:
            return self.record(False, traceback.format_exc(limit=3))
        return self.record(True)


def reference_loop() -> int:
    """Fixed pure-Python work that uses no part of the package: integer
    arithmetic and a small dict.  Of the loops tried (this one, Fraction
    arithmetic with a JSON dump, a graph search over sets), its time
    tracked the operations' time best on every workload."""
    total, table = 0, {}
    for i in range(50_000):
        total += i * i % 7
        table[i & 255] = total
    return total


class Pace:
    """The host's current speed, from the reference loop."""

    def __init__(self):
        reference_loop()  # the first call runs slow; time later ones
        self.samples: list = []
        for _ in range(PACE_WINDOW):
            self.last = float("-inf")
            self.scale()

    def scale(self) -> float:
        """The factor that turns the next measured seconds into paced
        seconds; times the reference loop if it is due."""
        if perf_counter() - self.last >= PACE_EVERY_S:
            start = perf_counter()
            reference_loop()
            self.last = perf_counter()
            self.samples.append(self.last - start)
        return NOMINAL_PACE_S / statistics.median(self.samples[-PACE_WINDOW:])

    def timed(self, fn, *args):
        """Run fn; returns (its result, paced seconds, raw seconds).  A
        call that outlasts PACE_EVERY_S is paced by the reference times
        around it, the one after it included."""
        scale = self.scale()
        start = perf_counter()
        result = fn(*args)
        raw = perf_counter() - start
        if raw >= PACE_EVERY_S:
            scale = self.scale()
        return result, raw * scale, raw


def cli_env() -> dict:
    paths = [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(paths))


def spawn(args: list):
    """Run one subprocess to exit; returns (wall s, exit code, stdout,
    stderr)."""
    start = perf_counter()
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=cli_env(),
                          capture_output=True, timeout=CHILD_TIMEOUT_S)
    return (perf_counter() - start, proc.returncode, proc.stdout.decode(),
            proc.stderr.decode())


# Runs the CLI exactly as ``python -m leibniz_graphs.cli`` does and, at
# exit, writes the process's own peak RSS to stderr.  The child's
# ru_maxrss cannot serve: it includes the parent's RSS at fork.
CLI_LAUNCHER = """import atexit, runpy, sys
def _peak():
    for line in open('/proc/self/status'):
        if line.startswith('VmHWM:'):
            sys.stderr.write('%s' + line)
atexit.register(_peak)
runpy.run_module('leibniz_graphs.cli', run_name='__main__', alter_sys=True)
""" % PEAK_MARK


def spawn_cli(argv: list):
    """One CLI command; returns (wall s, exit code, stdout, peak RSS MB)."""
    wall, code, stdout, stderr = spawn(["-c", CLI_LAUNCHER, *argv])
    mark = PEAK_MARK + "VmHWM:"
    peak_kb = [int(line[len(mark):].split()[0])
               for line in stderr.splitlines() if line.startswith(mark)]
    return wall, code, stdout, peak_kb[-1] / 1024 if peak_kb else 0.0


def probe_cli_import() -> float:
    """Spawn and import the CLI module; require the working tree's copy."""
    wall, code, out, _ = spawn(["-c", "import leibniz_graphs.cli as m; "
                                "print(m.__file__)"])
    if code != 0 or not Path(out.strip()).is_relative_to(SRC):
        raise RuntimeError(f"CLI subprocess imported {out.strip()!r}")
    return wall


def cli_in_process(argv: list):
    """The same command through ``cli.main``; returns (exit code, stdout)."""
    from leibniz_graphs import cli
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def command_verdict(command, code: int, stdout: str) -> str:
    """Empty when a CLI result is right, else the reason it is wrong."""
    ref_code, ref_stdout = cli_in_process(command.argv)
    if code != command.expect_exit or ref_code != command.expect_exit:
        return (f"{command.argv}: exit {code} (in-process {ref_code}), "
                f"expected {command.expect_exit}")
    if stdout != ref_stdout:
        return f"{command.argv}: stdout differs from cli.main"
    try:
        command.check_stdout(stdout)
    except Exception as exc:
        return f"{command.argv}: {exc}"
    return ""


class Phase:
    """A closed loop of one kind of operation over its inputs.  Samples
    and budget are paced seconds, so that a run takes the same number of
    samples whatever the host's speed."""

    def __init__(self, fn, items, budget_s: float, pace: Pace):
        self.fn, self.items, self.budget_s = fn, items, budget_s
        self.pace = pace
        self.samples, self.raw_samples, self.results = [], [], []
        self.busy_s = 0.0

    def done(self) -> bool:
        """The budget is spent, at least MIN_SAMPLES ran, and the last
        cycle over the inputs is whole."""
        return (self.busy_s >= self.budget_s
                and len(self.samples) >= MIN_SAMPLES
                and len(self.samples) % len(self.items) == 0)

    def round(self) -> None:
        """One cycle over the inputs, or the rest of the current one."""
        while True:
            item = self.items[len(self.samples) % len(self.items)]
            result, paced, raw = self.pace.timed(self.fn, item)
            self.results.append(result)
            self.samples.append(paced)
            self.raw_samples.append(raw)
            self.busy_s += paced
            if len(self.samples) % len(self.items) == 0:
                return


def interleave(*phases) -> None:
    """Alternate the phases a round at a time, always running the one
    furthest behind its budget, so that every phase samples the whole run
    rather than one stretch of it."""
    while True:
        pending = [p for p in phases if not p.done()]
        if not pending:
            return
        min(pending, key=lambda p: p.busy_s / p.budget_s).round()


def tail(samples: list) -> tuple:
    """The highest percentile with at least ten samples beyond it."""
    ordered = sorted(samples)
    idx = len(ordered) - 11
    return ordered[idx], round(100 * (idx + 1) / len(ordered), 1)


def input_names(items) -> list:
    if len(items) > 20:
        return [f"{len(items)} instances: {items[0].name} .. {items[-1].name}"]
    return [item.name for item in items]


def input_medians(items, samples) -> list:
    """Median time of each input; samples cycle over the inputs."""
    return [statistics.median(samples[i::len(items)])
            for i in range(len(items))]


def p50_by_input(items, samples) -> dict:
    """Median operation time of each input, for up to 20 inputs."""
    if len(items) > 20:
        return {}
    return dict(zip((item.name for item in items),
                    input_medians(items, samples)))


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def commit_id() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB


def run_untraced(workload, seed: int, seconds: float, workdir: Path,
                 import_s: float) -> tuple:
    outcomes = Outcomes()
    pace = Pace()
    paced_import_s = import_s * pace.scale()
    setups, raw_setups = [], []
    for _ in range(SETUP_REPEATS):
        # Every set-up starts from the same heap: no earlier inputs alive
        # and nothing left for the collector.
        inputs = None
        gc.collect()
        fresh_dir(workdir)
        inputs, paced, raw = pace.timed(workload.generate, seed, workdir)
        setups.append(paced)
        raw_setups.append(raw)
    items, commands = inputs.items, inputs.commands
    # The inputs live for the whole run: freeze them out of the collector,
    # so that a collection during an operation costs what the operation's
    # own objects cost, not what the inputs held by this workload cost.
    gc.collect()
    gc.freeze()

    outcomes.call(workload.op, items[0])  # warm-up
    probe_cli_import()
    ops = Phase(lambda item: outcomes.call(workload.op, item), items,
                seconds / 2, pace)
    cli = Phase(lambda c: spawn_cli(c.argv)[1:], commands, seconds / 2,
                pace)
    interleave(ops, cli)
    op_samples, cli_samples, runs = ops.samples, cli.samples, cli.results
    verdicts = {}
    for number, (code, stdout, _peak) in enumerate(runs):
        command = commands[number % len(commands)]
        key = id(command)
        if key not in verdicts:
            verdicts[key] = (code, stdout, command_verdict(command, code,
                                                           stdout))
        first_code, first_stdout, reason = verdicts[key]
        if not reason and (code, stdout) != (first_code, first_stdout):
            reason = f"{command.argv}: output changed between runs"
        outcomes.record(not reason, reason)

    if workload.self_check is not None:
        outcomes.call(workload.self_check)

    op_tail, op_pct = tail(op_samples)
    cli_tail, cli_pct = tail(cli_samples)
    metrics = {
        "setup_s": (paced_import_s + statistics.median(setups), "s"),
        "ops_per_s": (len(items) / sum(input_medians(items, op_samples)),
                      "1/s"),
        "op_p50_s": (statistics.median(op_samples), "s"),
        "op_tail_s": (op_tail, "s"),
        "cli_p50_s": (statistics.median(cli_samples), "s"),
        "cli_tail_s": (cli_tail, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
        "cli_peak_rss_mb": (max(run[2] for run in runs), "MB"),
    }
    detail = {
        "import_s": import_s, "setup_samples_s": setups,
        "raw_setup_samples_s": raw_setups,
        "raw_op_p50_s": statistics.median(ops.raw_samples),
        "raw_cli_p50_s": statistics.median(cli.raw_samples),
        "pace_p50_s": statistics.median(pace.samples),
        "pace_samples": len(pace.samples),
        "op_samples": len(op_samples), "op_tail_percentile": op_pct,
        "cli_samples": len(cli_samples), "cli_tail_percentile": cli_pct,
        "inputs": input_names(items),
        "op_p50_s_by_input": p50_by_input(items, op_samples),
        "verdict_mix": inputs.verdict_mix,
    }
    return outcomes, metrics, detail


def run_traced(workload, seed: int, workdir: Path) -> tuple:
    from tracer import Tracer

    outcomes = Outcomes()
    tracer = Tracer()
    fresh_dir(workdir)
    tracer.request = "setup"
    tracer.install()
    try:
        inputs = workload.generate(seed, workdir)
    finally:
        tracer.uninstall()
    items, commands = inputs.items, inputs.commands
    outcomes.call(workload.op, items[0])  # warm-up

    def one_pass() -> tuple:
        start = perf_counter()
        for number, item in enumerate(items):
            tracer.request = f"op-{number}"
            outcomes.call(workload.op, item)
        in_process = []
        for number, command in enumerate(commands):
            tracer.request = f"cli-{number}"
            t = perf_counter()
            code, stdout = cli_in_process(command.argv)
            in_process.append(perf_counter() - t)
            outcomes.record(code == command.expect_exit,
                            f"{command.argv}: in-process exit {code}")
        return perf_counter() - start, in_process

    untraced_s, in_process = one_pass()
    tracer.install()
    try:
        traced_s, _ = one_pass()
    finally:
        tracer.uninstall()

    overheads = []
    for command, local_s in zip(commands, in_process):
        wall, code, stdout, _peak = spawn_cli(command.argv)
        reason = command_verdict(command, code, stdout)
        outcomes.record(not reason, reason)
        overheads.append(wall - local_s)
    import_probes = [probe_cli_import() for _ in range(IMPORT_PROBES)]

    metrics = tracer.metrics()
    metrics["cli.import_s"] = (statistics.median(import_probes), "s")
    metrics["cli.overhead_s"] = (statistics.median(overheads), "s")
    metrics["tracing_overhead_s"] = (traced_s - untraced_s, "s")
    trace_path = WORK / f"trace-{workload.name}-seed{seed}.json"
    tracer.write(trace_path)
    detail = {
        "untraced_pass_s": untraced_s, "traced_pass_s": traced_s,
        "absent": tracer.absent, "spans_kept": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "trace_file": str(trace_path.relative_to(ROOT)),
        "inputs": input_names(items),
    }
    return outcomes, metrics, detail


def run_one(args) -> int:
    start = perf_counter()
    import leibniz_graphs
    import leibniz_graphs.cli  # noqa: F401 (traced with the other modules)
    import workloads
    import_s = perf_counter() - start
    if not Path(leibniz_graphs.__file__).resolve().is_relative_to(SRC):
        print(f"imported {leibniz_graphs.__file__}, not the working tree",
              file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; known: "
              f"{', '.join(workloads.WORKLOADS)}, all", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    try:
        if args.trace:
            outcomes, metrics, detail = run_traced(workload, args.seed,
                                                   workdir)
        else:
            outcomes, metrics, detail = run_untraced(
                workload, args.seed, args.seconds, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {
        "workload": workload.name, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "commit": commit_id(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "package": str(Path(leibniz_graphs.__file__).relative_to(ROOT)),
        "fail_ratio": outcomes.failed / outcomes.attempted,
        "failures": outcomes.reasons,
        **detail,
    }
    print(json.dumps(info))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if outcomes.failed == 0 else 1


def run_all(args) -> int:
    """Each workload in its own process; prints every metric by name."""
    import workloads
    status = 0
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = child.stdout.strip().splitlines()
        if child.returncode != 0 or len(lines) < 2:
            status = 1
            print(f"{name}: exit {child.returncode}\n{child.stderr}")
            if len(lines) < 2:
                continue
        info, result = json.loads(lines[-2]), json.loads(lines[-1])
        print(f"{name}: attempted {result['attempted']} failed "
              f"{result['failed']} fail_ratio {info['fail_ratio']:.4g} "
              f"(commit {info['commit'][:12]}, python {info['python']}, "
              f"nproc {info['nproc']})")
        for metric, entry in result["metrics"].items():
            print(f"  {metric:<52} {entry['value']:>14.6g} {entry['unit']}")
        for what in ("op", "cli"):
            if f"{what}_samples" in info:
                print(f"  {what}_tail_s is p{info[what + '_tail_percentile']}"
                      f" of {info[what + '_samples']} samples")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured (paced) seconds per run (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "leibniz_graphs" / "__init__.py").is_file():
        print(f"no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.seconds is None:
        config = json.loads((ROOT / "BENCHMARK.json").read_text())
        args.seconds = config["run_seconds"]
    WORK.mkdir(exist_ok=True)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
