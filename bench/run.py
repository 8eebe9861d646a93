#!/usr/bin/env python3
"""Closed-loop benchmark of the nijflow command line.

Run from the repository root:

    python3 bench/run.py --workload certify --seed 1 --seconds 16 --trace 0

One op is one in-process call of ``nijflow.cli.main([...])`` with stdout
captured in memory.  One client runs the workload's fixed cycle of ops, the
next op only after the previous one returns, in one process with one BLAS
thread.  Every op's output is checked (see checks.py).

With ``--trace 0`` the run reports the end-to-end metrics, measured with no
wrappers installed; set-up is measured in this process and in fresh child
processes, and the median is reported.  With ``--trace 1`` it runs each op
twice, untraced and under span wrappers (per-layer self times), then one
cycle with call counters, and reports the per-layer metrics; the spans are
written to ``.bench_out/spans-<workload>-<seed>.jsonl``.

Either way the run repeats the workload's cycle of ops a fixed number of
times, ``--seconds`` over the cycle's wall time on a quiet reference host
but at least MIN_CYCLES, so every run of a workload has the same samples
and the tail percentile sits at the same rank; a run stops early only if it
takes twice as long as those cycles take on the reference host.

End-to-end times are calibrated seconds (see reference.py): each op's wall
time scaled by a fixed reference kernel timed right after it, so that the
host's load, which changes the speed of everything for minutes at a time,
drops out.  The report line has the same metrics from plain wall time under
``wall.`` names.  ``op_s.p50`` is the median over the cycle's ops of each
op's median time, which stays put when a cycle splits evenly into fast and
slow ops.

The second-to-last line of stdout is a full report (all metrics with units,
accuracy figures, the environment); the last line is the result object
``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread; this must happen before numpy is first imported.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                    "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import cases  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# Wall seconds of one cycle, output checks and reference kernels included,
# on the reference host (2-vCPU x86_64 VM, Python 3.11, numpy 2.4) in a
# quiet phase.  They only turn --seconds into a fixed cycle count.
NOMINAL_CYCLE_S = {"certify": 1.3, "lattice": 2.4, "crosscheck": 7.0}
SETUP_PROBES = 2      # child processes; with the run's own set-up, 3 samples
KERNEL_SAMPLES = 5    # reference kernel timings calibrating one set-up
TAIL_BEYOND = 10      # op_s.tail has at least this many samples above it
# Fewest cycles in a run, whatever --seconds asks for, so that op_s.tail
# falls inside the repeats of one op rather than on the slowest of them,
# where one slow outlier would move it.  The ten samples above the tail come
# from the slowest ops: in crosscheck six repeats of its two slowest ops
# hold them, and in lattice, with two ops, twelve repeats put the tail at
# the second fastest of the slower op.
MIN_CYCLES = {"certify": 6, "lattice": 12, "crosscheck": 6}

WORK_UNIT = {"certify": "identity checks evaluated",
             "lattice": "lattice nodes written",
             "crosscheck": "lattice nodes written, read or compared"}

END_TO_END_UNITS = {"setup_s": "s", "op_s.p50": "s", "op_s.tail": "s",
                    "work_per_s": "units/s", "peak_rss_mb": "MB"}

# per-layer metric -> unit; ".s" is self time per op, ".calls" calls per op
PER_LAYER_UNITS = {
    "model.build.s": "s", "exactpoly.parse.s": "s",
    "metric.h_family.s": "s", "metric.gram.s": "s",
    "hierarchy.killing.s": "s", "hierarchy.first_integrals.s": "s",
    "operators.torsion.s": "s", "metric.gram_normal_form.s": "s",
    "metric.differential_shift.s": "s", "metric.pairwise_poisson.s": "s",
    "compat.benenti.s": "s", "metric.covariant_at.s": "s",
    "compat.coordinate_form.s": "s", "compat.coordinate_form.calls": "count",
    "hierarchy.commuting.s": "s", "exactpoly.mul.calls": "count",
    "flows.orbit_grid.s": "s", "flows.integrate_flow.s": "s",
    "flows.integrate_flow.calls": "count", "flows.integrate_flow_path.s": "s",
    "flows.integrate_flow_path.calls": "count", "flows.rhs.calls": "count",
    "flows.rhs_per_node": "calls/node", "flows.us_per_node": "us",
    "pde.direct_solve.s": "s", "pde.node_steps": "count",
    "pde.ns_per_node_step": "ns", "pde.grid_residual.s": "s",
    "cli.load_config.s": "s", "cli.write_grid_csv.s": "s",
    "cli.write_grid_csv.bytes": "bytes", "cli.read_grid_csv.s": "s",
    "cli.write_svg_plot.s": "s", "cli.self.s": "s",
    "err.drift": "abs", "err.direct_dev": "1/dx2",
    "trace.overhead": "ratio",
}


def load_cli():
    """Import the package from this checkout's sources, never from
    elsewhere on the path."""
    sys.path.insert(0, str(SRC))
    import nijflow.cli
    if SRC not in Path(nijflow.cli.__file__).resolve().parents:
        raise SystemExit(f"bench: imported nijflow from "
                         f"{nijflow.cli.__file__}, not from {SRC}")
    return nijflow.cli


class Runner:
    """Runs ops, checks their outputs and keeps the tallies."""

    def __init__(self, main, checker, workdir: Path):
        self.main = main
        self.checker = checker
        self.workdir = workdir
        self.times: list[float] = []
        self.work = 0
        self.attempted = 0
        self.failed = 0
        self.incorrect = False
        self.failures: list[str] = []

    def execute(self, op, tracer=None, op_id=0):
        """One op: (exit code, seconds, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        argv = op.argv(self.workdir)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                rc = tracer.run_op(op_id, self.main, argv) if tracer \
                    else self.main(argv)
            except Exception as exc:  # an escaped error fails the op
                rc = f"uncaught {type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - start
        if err.getvalue() and rc != op.expect_exit:
            rc = f"{rc} ({err.getvalue().strip()})"
        return rc, seconds, out.getvalue()

    def record(self, op, rc, seconds, stdout, timed=True):
        fails, work = self.checker.check(op, rc, stdout)
        self.attempted += 1
        if fails:
            self.failed += 1
            self.incorrect |= any(f.kind == "output" for f in fails)
            self.failures += [f.message for f in fails]
        if timed:
            self.times.append(seconds)
            self.work += work

    def run(self, op, tracer=None, op_id=0):
        rc, seconds, stdout = self.execute(op, tracer, op_id)
        self.record(op, rc, seconds, stdout)
        return seconds


def set_up(name: str, seed: int, workdir: Path):
    """Import, make the inputs, run one warm-up op; the set-up seconds
    cover exactly that, not the warm-up's output check."""
    start = time.perf_counter()
    cli = load_cli()
    workload = cases.make_workload(name, seed)
    cases.write_configs(workload, workdir)
    from checks import Checker
    runner = Runner(cli.main, Checker(workload, workdir), workdir)
    warm = workload.cycle[0]
    rc, _, stdout = runner.execute(warm)
    seconds = time.perf_counter() - start
    import reference  # numpy is loaded by now, so this adds nothing above
    kernel_s = statistics.median(reference.kernel_seconds()
                                 for _ in range(KERNEL_SAMPLES))
    calibrated = reference.calibrated(seconds, kernel_s)
    runner.record(warm, rc, 0.0, stdout, timed=False)
    return workload, runner, (seconds, calibrated)


def probe_setups(args) -> list[tuple[float, float]]:
    """(wall, calibrated) set-up seconds of fresh processes, each paying
    its own import."""
    samples = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed)],
            capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise SystemExit(f"bench: set-up probe failed: {proc.stderr}")
        wall, calibrated = proc.stdout.strip().splitlines()[-1].split()
        samples.append((float(wall), float(calibrated)))
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples above it:
    (value, percentile)."""
    ordered = sorted(times)
    rank = len(ordered) - TAIL_BEYOND - 1
    return ordered[rank], 100.0 * rank / max(1, len(ordered) - 1)


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {"machine": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "blas": blas,
            "blas_threads": {v: os.environ[v] for v in BLAS_THREAD_VARS},
            "seed": seed}


def with_units(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": units[name]}
            for name in units}


def accuracy(workload: str, runner: Runner) -> dict:
    out = {"fail_ratio": {"value": runner.failed / runner.attempted,
                          "unit": "ratio"}}
    if workload == "lattice":
        out["err.drift"] = {"value": runner.checker.drift, "unit": "abs"}
    if workload == "crosscheck":
        out["err.direct_dev"] = {"value": runner.checker.direct_dev,
                                 "unit": "1/dx2"}
    return out


def repeat_cycles(cycles: int, limit_s: float, run_cycle) -> int:
    """``cycles`` cycles, or fewer once ``limit_s`` seconds have passed (at
    least one); how many ran."""
    start = time.perf_counter()
    done = 0
    while done < cycles and (
            done == 0 or time.perf_counter() - start < limit_s):
        run_cycle()
        done += 1
    return done


def measure(args, workload, runner, cycles: int, setups):
    import reference
    wall = [[] for _ in workload.cycle]
    cal = [[] for _ in workload.cycle]
    kernel = [reference.kernel_seconds()]

    def run_cycle():
        for k, op in enumerate(workload.cycle):
            rc, seconds, stdout = runner.execute(op)
            kernel.append(reference.kernel_seconds())
            runner.record(op, rc, seconds, stdout)
            wall[k].append(seconds)
            cal[k].append(reference.calibrated(
                seconds, (kernel[-2] + kernel[-1]) / 2))

    cycles = repeat_cycles(
        cycles, 2 * cycles * NOMINAL_CYCLE_S[args.workload], run_cycle)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    values, tail_pct = op_metrics(cal, runner.work)
    values["setup_s"] = statistics.median(c for _, c in setups)
    values["peak_rss_mb"] = rss_mb
    metrics = with_units(values, END_TO_END_UNITS)
    plain, _ = op_metrics(wall, runner.work)
    plain["setup_s"] = statistics.median(w for w, _ in setups)
    plain = {f"wall.{name}": {"value": value, "unit": END_TO_END_UNITS[name]}
             for name, value in plain.items()}
    report = {"workload": args.workload, "trace": 0,
              "metrics": {**metrics, **plain,
                          **accuracy(args.workload, runner)},
              "op_s.tail_percentile": tail_pct,
              "work_unit": WORK_UNIT[args.workload],
              "op_s.p50_by_op": {f"{op.command} {op.case}":
                                 statistics.median(ts)
                                 for op, ts in zip(workload.cycle, cal)},
              "kernel_s": {"nominal": reference.NOMINAL_S,
                           "min": min(kernel),
                           "p50": statistics.median(kernel),
                           "max": max(kernel)},
              "samples": {"ops": len(runner.times), "cycles": cycles,
                          "setups": len(setups),
                          "tail_beyond": TAIL_BEYOND},
              "setup_samples_s": {"wall": [w for w, _ in setups],
                                  "calibrated": [c for _, c in setups]}}
    return metrics, report


def op_metrics(times: list[list[float]], work: int):
    """p50, tail and work per second over per-cycle-position op times;
    and the tail's percentile."""
    flat = [t for ts in times for t in ts]
    tail_value, tail_pct = tail(flat)
    return {"op_s.p50": statistics.median(statistics.median(ts)
                                          for ts in times),
            "op_s.tail": tail_value,
            "work_per_s": work / sum(flat)}, tail_pct


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def measure_layers(args, workload, runner, cycles: int):
    from spans import Tracer, self_times, total_times
    # Each op runs untraced and traced back to back, in alternating order,
    # so changes in machine speed fall on both sides of trace.overhead.
    spans = Tracer("span")
    untraced = traced = 0.0
    op_ids = itertools.count()

    def run_pair():
        nonlocal untraced, traced
        for op in workload.cycle:
            i = next(op_ids)
            if i % 2:
                untraced += runner.run(op)
            spans.install()
            try:
                traced += runner.run(op, spans, i)
            finally:
                spans.uninstall()
            if not i % 2:
                untraced += runner.run(op)

    passes = max(1, cycles // 2)  # each runs the cycle twice
    passes = repeat_cycles(
        passes, 4 * passes * NOMINAL_CYCLE_S[args.workload], run_pair)
    counts = Tracer("count")
    counts.install()
    try:
        for i, op in enumerate(workload.cycle):
            runner.run(op, counts, i)
    finally:
        counts.uninstall()
    OUT.mkdir(exist_ok=True)
    spans.write(OUT / f"spans-{args.workload}-{args.seed}.jsonl")

    n_traced, n_counted = passes * len(workload.cycle), len(workload.cycle)
    own = self_times(spans.spans)
    total = total_times(spans.spans)
    values = {name: own.get(name[:-2], 0.0) / n_traced
              for name in PER_LAYER_UNITS if name.endswith(".s")}
    values["cli.self.s"] = own["cli.main"] / n_traced
    for name in PER_LAYER_UNITS:
        if name.endswith(".calls"):
            values[name] = counts.counts[name[:-6]] / n_counted
    nodes = counts.quantities["flows.orbit_grid.nodes"]
    values["flows.rhs_per_node"] = _ratio(counts.counts["flows.rhs"], nodes)
    values["flows.us_per_node"] = _ratio(
        total.get("flows.orbit_grid", 0.0),
        spans.quantities["flows.orbit_grid.nodes"], 1e6)
    values["pde.node_steps"] = counts.quantities["pde.node_steps"] / n_counted
    values["pde.ns_per_node_step"] = _ratio(
        total.get("pde.direct_solve", 0.0),
        spans.quantities["pde.node_steps"], 1e9)
    values["cli.write_grid_csv.bytes"] = \
        counts.quantities["cli.write_grid_csv.bytes"] / n_counted
    values["err.drift"] = runner.checker.drift
    values["err.direct_dev"] = runner.checker.direct_dev
    values["trace.overhead"] = traced / untraced - 1.0
    metrics = with_units(values, PER_LAYER_UNITS)
    report = {"workload": args.workload, "trace": 1,
              "metrics": {**metrics, **accuracy(args.workload, runner)},
              "layer_self_sum_s_per_op": sum(own.values()) / n_traced,
              "traced_op_s_per_op": traced / n_traced,
              "untraced_op_s_per_op": untraced / n_traced,
              "samples": {"untraced_ops": n_traced, "traced_ops": n_traced,
                          "counted_ops": n_counted, "spans": len(spans.spans)}}
    return metrics, report


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=cases.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=16.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "nijflow" / "__init__.py").is_file():
        print(f"bench: no package sources at {SRC / 'nijflow'}",
              file=sys.stderr)
        return 2
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        workload, runner, setup_s = set_up(args.workload, args.seed, workdir)
        if args.setup_probe:
            print(*setup_s)
            return 0
        cycles = max(round(args.seconds / NOMINAL_CYCLE_S[args.workload]),
                     MIN_CYCLES[args.workload])
        if args.trace:
            metrics, report = measure_layers(args, workload, runner, cycles)
        else:
            setups = [setup_s] + probe_setups(args)
            metrics, report = measure(args, workload, runner, cycles, setups)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    report["env"] = environment(args.seed)
    report["failures"] = runner.failures[:10]
    print(json.dumps(report, sort_keys=True))
    print(json.dumps({"correct": not runner.incorrect,
                      "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
