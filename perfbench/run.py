"""Benchmark for gtprob: one workload, one closed loop, one JSON line.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

The workload's inputs come from ``--seed``.  A run imports gtprob from
``src/`` of the checkout and builds the workload several times (set-up),
computes reference values apart from gtprob, and then makes whole passes
over the workload's fixed list of operations, one at a time, for
``--seconds`` (at least two passes).  Each operation's time is scaled to
the reference pace of the machine by probes run around it, and counts at
its median over the passes.  Every result is checked against the
references outside the timed region, and every check must reject a
perturbed result once at the end.

The last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones, measured with nothing installed; with
``--trace 1`` one untraced pass is followed by one pass with the span
wrappers of ``spans.py`` installed, and the metrics are per layer.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import itertools
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from fractions import Fraction as Q

import oracle as O

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 7
MIN_PASSES = 2
MODULES = ("gtprob", "gtprob.serialize", "gtprob.cli")
TRACE_OUT = os.path.join(ROOT, ".perfbench_out")
CLI_START_REPEATS = 3

# The pace probes: fixed computations of the benchmark's own, each of the
# kind of work of one part of a run.  Their times follow the speed of the
# machine, which other tenants of the host change by up to twice from one
# second to the next; an operation's time is scaled by the probes run just
# before and after it (see ``paced``).  The compute probe is a two-measure
# envelope recursion over 9 rounds and 512 fixed leaves; the build probe
# makes a 65,536-entry table of situation tuples to ``Fraction`` values;
# the import probe imports the benchmark's own modules afresh.  The
# *_PACE_S values are their times on the machine the reference figures of
# the README come from, when it ran at its full speed.
PACE_ROUNDS = [("envelope", ((Q(1, 3), Q(2, 3)), (Q(3, 5), Q(2, 5))))] * 9
PACE_LEAVES = [Q(i * 37 % 61 - 30, 1 + i % 7) for i in range(2**9)]
PACE_KEYS = [tuple(format(i, "09b")) for i in range(2**9)]
PACE_MODULES = ("oracle", "spans", "workloads")
BUILD_KEYS = list(itertools.product("0123", repeat=8))
BUILD_VALUES = [i * 37 % 61 - 30 for i in range(4**8)]
COMPUTE_PACE_S = 0.012
BUILD_PACE_S = 0.044
IMPORT_PACE_S = 0.021


def pin_to_one_cpu() -> None:
    """Run on one CPU only, the first this process may use.

    The two CPUs of a small virtual machine can run at different speeds;
    a run that migrates between them mixes both into its timings.  Child
    processes inherit the pinning.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def import_gtprob():
    """A fresh import of gtprob from ``src/``, dropping any earlier one."""
    for name in [m for m in sys.modules if m == "gtprob" or m.startswith("gtprob.")]:
        del sys.modules[name]
    gt = [importlib.import_module(m) for m in MODULES][0]
    if os.path.dirname(os.path.dirname(os.path.abspath(gt.__file__))) != SRC:
        raise SystemExit(f"perfbench: imported gtprob from {gt.__file__}, not from {SRC}")
    return gt


def set_up(wl) -> float:
    """Median time, at the reference pace, of importing gtprob and
    building the workload's inputs.

    The import is scaled by the import probe and the build by the build
    probe.  A first, untimed set-up loads the standard-library modules
    that gtprob and the workload share, and each set-up starts from the
    workload as it was made, the previous build freed untimed, so that
    each timed one costs the same.  The last import and build are the ones
    the run uses.
    """
    made = dict(vars(wl))
    times = []
    for i in range(SETUP_REPEATS + 1):
        vars(wl).clear()
        vars(wl).update(made)
        gc.collect()
        before = import_pace_s(), build_pace_s()
        t0 = time.perf_counter()
        wl.gt = import_gtprob()
        t1 = time.perf_counter()
        wl.build()
        t2 = time.perf_counter()
        after = import_pace_s(), build_pace_s()
        if i:
            times.append(
                paced([(t1 - t0, before[0]), (0.0, after[0])], IMPORT_PACE_S)[0]
                + paced([(t2 - t1, before[1]), (0.0, after[1])], BUILD_PACE_S)[0]
            )
    return statistics.median(times)


def compute_pace_s() -> float:
    """Time of the compute probe: the kind of work gtprob does, a
    ``Fraction`` backward induction and a table keyed by situation tuples,
    written apart from gtprob."""
    t0 = time.perf_counter()
    O.levels(PACE_ROUNDS, 2, PACE_LEAVES)
    dict(zip(PACE_KEYS, PACE_LEAVES))
    return time.perf_counter() - t0


def build_pace_s() -> float:
    """Time of the build probe: a large table of situation tuples to
    ``Fraction`` values, the kind of work of building payoffs and games."""
    t0 = time.perf_counter()
    {k: Q(v) for k, v in zip(BUILD_KEYS, BUILD_VALUES)}
    return time.perf_counter() - t0


def import_pace_s() -> float:
    """Time of the import probe: a fresh import of the benchmark's own
    modules, the kind of work of interpreter start and ``import gtprob``."""
    t0 = time.perf_counter()
    for name in PACE_MODULES:
        sys.modules.pop(name, None)
        importlib.import_module(name)
    return time.perf_counter() - t0


PROBES = {"compute": (compute_pace_s, COMPUTE_PACE_S), "import": (import_pace_s, IMPORT_PACE_S)}


class Runner:
    def __init__(self, workload, tracer=None):
        self.wl = workload
        self.ops = workload.ops()
        self.checks = workload.pass_checks()
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.last: dict = {}
        self.pace, self.pace_nominal = PROBES[workload.pace]

    def run_pass(self) -> list[tuple[float, float]]:
        """One pass over the operations: (seconds, pace before) for each,
        and the pace after the last as a final ``(0.0, pace)``."""
        samples = []
        results = {}
        gc.collect()
        for op in self.ops:
            self.attempted += 1
            pace = self.pace()
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # a failed operation is counted, not fatal
                result, problem = None, f"{op.name} raised {type(exc).__name__}: {exc}"
            else:
                problem = None
            elapsed = time.perf_counter() - t0
            samples.append((elapsed, pace))
            if problem is not None:
                self.failed += 1
                if not op.probe:
                    print(f"perfbench: {problem}", file=sys.stderr)
                continue
            with self._untraced():
                if op.collect is not None:
                    result = op.collect(result)
                problem = op.check(result)
            if op.probe:
                if problem:
                    self.failed += 1
                continue
            if problem:
                self.problems.append(problem)
            results[op.name] = result
        samples.append((0.0, self.pace()))
        with self._untraced():
            for name, check, _perturb in self.checks:
                if all(op.name in results for op in self.ops if not op.probe):
                    problem = check(results)
                    if problem:
                        self.problems.append(f"{name}: {problem}")
        self.last = results
        return samples

    def self_test(self) -> None:
        """Every check must reject a perturbed result."""
        self.wl.self_test = True
        with self._untraced():
            for op in self.ops:
                if op.probe or op.name not in self.last:
                    continue
                if op.check(op.perturb(self.last[op.name])) is None:
                    self.problems.append(f"self-test: the check of {op.name} accepted a perturbed result")
            for name, check, perturb in self.checks:
                if self.last and check(perturb(self.last)) is None:
                    self.problems.append(f"self-test: the pass check {name} accepted a perturbed result")
        self.wl.self_test = False

    def _untraced(self):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.paused()


def paced(samples: list[tuple[float, float]], nominal: float) -> list[float]:
    """Each operation's seconds at the reference pace: its time scaled by
    the probe's ``nominal`` time over the mean of the probes just before
    and after it."""
    return [t * 2 * nominal / (p + samples[i + 1][1]) for i, (t, p) in enumerate(samples[:-1])]


def measure(runner: Runner, seconds: float) -> list[list[tuple[float, float]]]:
    """Whole passes, at least MIN_PASSES, and no pass begun that the
    longest pass so far says would end after ``seconds``."""
    passes = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        t0 = time.perf_counter()
        passes.append(runner.run_pass())
        longest = max(longest, time.perf_counter() - t0)
        if len(passes) >= MIN_PASSES and time.perf_counter() - start + longest > seconds:
            break
    walls = " ".join(f"{sum(t for t, _ in p):.3f}" for p in passes)
    at_pace = " ".join(f"{sum(paced(p, runner.pace_nominal)):.3f}" for p in passes)
    print(f"perfbench: {len(passes)} passes, seconds each: {walls}; at the reference pace: {at_pace}", file=sys.stderr)
    return passes


def end_to_end(runner, passes, setup_s, rss_mb) -> dict:
    n = len(runner.ops)
    paced_passes = [paced(p, runner.pace_nominal) for p in passes]
    op_s = [statistics.median(p[i] for p in paced_passes) for i in range(n)]
    wall = sum(op_s)
    nodes = sum(op.nodes for op in runner.ops)
    return {
        "setup_s": {"value": setup_s, "unit": "s"},
        "wall_s": {"value": wall, "unit": "s"},
        "op_p50_s": {"value": statistics.median(op_s), "unit": "s"},
        "nodes_per_s": {"value": nodes / wall, "unit": "nodes/s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
    }


def ops_rss_mb(wl) -> float:
    """Peak resident memory of a process that sets the workload up once
    and makes one pass over its operations, untimed and unchecked.

    The process is forked before set-up, so it holds the workload's plain
    inputs and none of the benchmark's references, checks or timed passes.
    """
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        peak = -1
        try:
            os.close(read)
            wl.gt = import_gtprob()
            wl.build()
            for op in wl.ops():
                try:
                    op.call()
                except Exception:  # a failed operation is counted in the timed passes
                    pass
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        except BaseException:
            traceback.print_exc()
        finally:
            os.write(write, str(peak).encode())
            os._exit(0)
    os.close(write)
    with os.fdopen(read) as fh:
        peak = int(fh.read())
    os.waitpid(pid, 0)
    if peak < 0:
        raise SystemExit("perfbench: the memory pass failed")
    return peak / 1024


def cli_start_s() -> float:
    """Interpreter start plus ``import gtprob.cli``, timed apart."""
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for _ in range(CLI_START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import gtprob.cli"], env=env, check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def per_layer(wl, runner, seed) -> dict:
    import spans

    tracer = spans.Tracer()
    runner.tracer = tracer
    untraced = sum(t for t, _ in runner.run_pass())
    tracer.install()
    tracer.reset()
    traced = sum(t for t, _ in runner.run_pass())
    values = tracer.metrics()
    values["cli.start_s"] = cli_start_s() if wl.name == "cli" else 0.0
    values["trace.overhead_s"] = traced - untraced
    tracer.write_spans(os.path.join(TRACE_OUT, f"spans-{wl.name}-{seed}.json"))
    return {name: {"value": v, "unit": unit_of(name)} for name, v in sorted(values.items())}


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(".bytes"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    from workloads import WORKLOADS

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "gtprob", "__init__.py")):
        print(f"perfbench: no gtprob sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    pin_to_one_cpu()
    wl = WORKLOADS[args.workload](ROOT, args.seed)
    # The benchmark's own inputs and references are long-lived; frozen,
    # they cost the collector nothing during set-up and timed operations.
    gc.collect()
    gc.freeze()
    try:
        # In cli the operations are processes of their own: the largest counts.
        rss_mb = None if args.trace or wl.name == "cli" else ops_rss_mb(wl)
        setup_s = set_up(wl)
        wl.prepare()
        gc.collect()
        gc.freeze()
        if args.trace:
            wl.in_process = True
        runner = Runner(wl)
        if args.trace:
            metrics = per_layer(wl, runner, args.seed)
        else:
            passes = measure(runner, args.seconds)
            if rss_mb is None:
                rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
            metrics = end_to_end(runner, passes, setup_s, rss_mb)
        runner.self_test()
    finally:
        wl.cleanup()
    for problem in runner.problems[:20]:
        print(f"perfbench: {problem}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": not runner.problems,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
