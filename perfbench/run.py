#!/usr/bin/env python3
"""Benchmark of the dirichlet-lab CLI, end to end and layer by layer.

Run from the root of a checkout (nothing needs installing; the program is
imported from ``src/``):

    python3 perfbench/run.py --workload decay-veronese --seed 0 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all      # every workload, one summary table

A run is a closed loop with one client: the workload's CLI command runs in
this process through ``dirichlet_lab.cli.main`` once as an untimed warm-up,
then again and again, each call after the previous one returned, until
``--seconds`` have passed.  Every call's report is checked; a call that
exits nonzero or fails a check counts as failed.

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: median wall seconds of one call (import excluded);
* ``lattices_per_s``: lattices whose shortest vector was decided, per
  second of ``wall_s``;
* ``setup_s``: median, over several fresh processes, of the time to import
  numpy and ``dirichlet_lab`` and build the argument parser;
* ``peak_rss_mb``: peak resident memory of this process.

``--trace 1`` alternates untraced and traced calls and reports the
per-layer metrics of ``tracing.py``; the spans of the traced calls are
written to ``.perfbench_work/``.  The last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter

import numpy

from tracing import EXACT, LAYER_METRICS, Tracer, layer_metrics, median_layers, percentile
from workloads import WORKLOADS, read_report

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"
MIN_CALLS = 3
SETUP_RUNS = 11
SETUP_CODE = ("import time; t0 = time.perf_counter(); import numpy; "
              "from dirichlet_lab.cli import build_parser; build_parser(); "
              "print(time.perf_counter() - t0)")

END_TO_END = {"wall_s": "s", "lattices_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass
class Call:
    wall_s: float
    problems: list
    payload: str | None = None  # sha256 of the report payload
    boundary_n: int = 0
    layers: dict = field(default_factory=dict)


def load_cli():
    """Import the CLI from this checkout's ``src``; ImportError if it is not there."""
    src = (ROOT / "src").resolve()
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    import dirichlet_lab.cli as cli

    if Path(cli.__file__).resolve().parents[1] != src:
        raise ImportError("dirichlet_lab was imported from %s, not from %s"
                          % (cli.__file__, src))
    return cli


def _git(*args) -> str | None:
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        done = subprocess.run(["git", *args], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(seed: int, workers: int) -> dict:
    status = _git("status", "--porcelain")
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "load_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "seed": seed,
        "workers": workers,
    }


def measure_setup() -> float:
    """Seconds a fresh process spends importing the program and building its
    parser, measured inside that process."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                          env=dict(os.environ, PYTHONPATH=path), capture_output=True,
                          text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_call(cli, workload, argv: list, out_dir: Path, size: int) -> Call:
    report = out_dir / "report.jsonl"
    report.unlink(missing_ok=True)
    sink = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(sink), redirect_stderr(sink):
            code = cli.main(argv)
    except Exception:
        return Call(perf_counter() - start, ["raised: %s" % traceback.format_exc()])
    wall = perf_counter() - start
    if code != 0:
        return Call(wall, ["exit code %d: %s" % (code, sink.getvalue().strip()[-500:])])
    try:
        payload, records = read_report(report)
        problems = workload.check(records, size)
        boundary = sum(v for rec in records for k, v in rec.items() if k.endswith("boundary_n"))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return Call(wall, ["unreadable report: %r" % exc])
    return Call(wall, problems, payload, boundary)


def tail(values: list) -> tuple | None:
    """(p, value) for the highest percentile at or above the median that has
    at least ten values beyond it, or None when there are fewer than 20."""
    n = len(values)
    p = 100 * (n - 10) // n
    return (p, percentile(values, p)) if p >= 50 else None


def run_workload(workload, seed: int, seconds: float, trace: bool, size: int) -> dict:
    cli = load_cli()
    out_dir = WORK / workload.name
    argv = workload.argv(seed, str(out_dir), size)
    calls = [run_call(cli, workload, argv, out_dir, size)]  # warm-up, not timed
    untraced, traced, spans, absent, setup = [], [], [], [], []
    deadline = perf_counter() + seconds
    while (perf_counter() < deadline or len(untraced) < MIN_CALLS
           or (trace and len(traced) < MIN_CALLS)):
        if trace and len(calls) % 2 == 0:
            with Tracer() as tracer:
                call = run_call(cli, workload, argv, out_dir, size)
            call.layers = layer_metrics(tracer.spans, call.boundary_n)
            absent = tracer.absent
            spans.extend(dict(asdict(s), call=len(calls)) for s in tracer.spans)
            traced.append(call)
        else:
            call = run_call(cli, workload, argv, out_dir, size)
            untraced.append(call)
            # set-up runs are spread over the run, between calls
            if not trace and len(setup) < SETUP_RUNS:
                setup.append(measure_setup())
        calls.append(call)

    # a fixed seed must give the same payload, and the same exact counts,
    # on every call
    payloads = [call.payload for call in calls if call.payload is not None]
    for call in calls:
        if call.payload is not None and call.payload != payloads[0]:
            call.problems.append("payload differs from the first call's")
    for call in traced[1:]:
        moved = [name for name in EXACT if call.layers[name] != traced[0].layers[name]]
        if moved:
            call.problems.append("exact counts differ between traced calls: %s" % moved)

    failed = sum(1 for call in calls if call.problems)
    walls = [call.wall_s for call in untraced]
    result = {
        "workload": workload.name, "size": size, "calls": calls,
        "walls": walls, "setup": setup, "attempted": len(calls), "failed": failed,
        "absent": absent,
    }
    if trace:
        WORK.mkdir(exist_ok=True)
        with open(WORK / ("spans-%s.jsonl" % workload.name), "w") as out:
            out.writelines(json.dumps(s) + "\n" for s in spans)
        result["metrics"] = median_layers([c.layers for c in traced],
                                          [c.wall_s for c in traced], walls)
    else:
        wall = statistics.median(walls)
        result["metrics"] = {
            "wall_s": wall,
            "lattices_per_s": workload.lattices(size) / wall,
            "setup_s": statistics.median(setup),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    return result


def print_result(result: dict, trace: bool) -> None:
    metrics = result["metrics"]
    print("# workload %s, size %d: %d calls attempted, %d failed, error_rate %.4g"
          % (result["workload"], result["size"], result["attempted"], result["failed"],
             result["failed"] / result["attempted"]))
    for index, call in enumerate(result["calls"]):
        for problem in call.problems:
            print("# call %d failed: %s" % (index, problem))
    if not trace:
        walls = result["walls"]
        top = tail(walls)
        quartiles = statistics.quantiles(walls, n=4)
        print("%-16s %12.6g s    median of %d calls, min %.6g, quartiles %.6g %.6g; %s" % (
            "wall_s", metrics["wall_s"], len(walls), min(walls), quartiles[0], quartiles[2],
            "p%d %.6g s (10 calls beyond it)" % top if top else
            "no percentile above the median has 10 calls beyond it"))
        for name in ("lattices_per_s", "setup_s", "peak_rss_mb"):
            print("%-16s %12.6g %s" % (name, metrics[name], END_TO_END[name]))
        return
    wall = metrics["trace.wall_s"]
    for name, (unit, kind, probe) in LAYER_METRICS.items():
        if probe in result["absent"]:
            print("%-30s %12s %-8s absent" % (name, "-", unit))
            continue
        share = ("%5.1f%% of traced wall" % (100.0 * metrics[name] / wall)
                 if unit == "s" and not name.startswith("trace.") else "")
        print("%-30s %12.6g %-8s %-9s %s" % (name, metrics[name], unit, kind, share))
    print("# exterior: on no CLI path, unmeasured")


def json_line(result: dict, trace: bool) -> str:
    units = ({name: unit for name, (unit, _, _) in LAYER_METRICS.items()} if trace
             else END_TO_END)
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    })


def run_all(args) -> int:
    """Every workload in its own process, then one summary table."""
    rows = []
    for name in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"]
        if args.full:
            argv.append("--full")
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
        sys.stdout.write(done.stdout)
        sys.stderr.write(done.stderr)
        if done.returncode != 0:
            return done.returncode
        rows.append((name, json.loads(done.stdout.splitlines()[-1])))
    print("\n%-18s %12s %14s %10s %12s %10s" % (
        "workload", "wall_s [s]", "lattices_per_s", "setup_s [s]", "peak_rss_mb", "error_rate"))
    attempted = failed = 0
    for name, row in rows:
        m = {k: v["value"] for k, v in row["metrics"].items()}
        attempted += row["attempted"]
        failed += row["failed"]
        print("%-18s %12.4f %14.1f %10.4f %12.1f %10.4g" % (
            name, m["wall_s"], m["lattices_per_s"], m["setup_s"], m["peak_rss_mb"],
            row["failed"] / row["attempted"]))
    print("error_rate over all workloads: %d / %d = %.4g"
          % (failed, attempted, failed / attempted))
    return 0 if failed == 0 else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--full", action="store_true",
                        help="reference input sizes instead of the scaled ones")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if args.workload == "all":
        return run_all(args)
    try:
        load_cli()
    except ImportError as exc:
        print("perfbench: cannot import the program from %s: %s" % (ROOT / "src", exc),
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print("# provenance %s" % json.dumps(provenance(args.seed, workload.workers)))
    size = workload.full_size if args.full else workload.size
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), size)
    print_result(result, bool(args.trace))
    print(json_line(result, bool(args.trace)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
