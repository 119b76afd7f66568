"""The benchmark's four workloads: CLI argument lists, work counts, output checks.

Each workload is one ``dirichlet-lab`` subcommand at a fixed configuration.
``size`` scales the sample (or system) count so that one run takes about a
second on a 2-core box; ``full_size`` is the reference configuration the
size was scaled from.  The seed is the benchmark's ``--seed``.
"""

from __future__ import annotations

import hashlib
import json
import shlex
from dataclasses import dataclass
from typing import Callable

# Escape/decay tables: number of weight vectors and eps values on the
# command line, used by the cell-count check.
_DECAY_T = 3
_CANTOR_T = 1
_EPS = 4
_COUNTEREXAMPLE_S = 6
_MAX_DISCREPANCY = 0.02


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                     # subcommand and flags; {size} is filled in
    size: int                        # scaled samples or systems
    full_size: int                   # reference samples or systems
    workers: int
    lattices: Callable[[int], int]   # lattices whose shortest vector is decided
    check: Callable[[list, int], list]  # (records, size) -> problems found
    why: str

    def argv(self, seed: int, output: str, size: int) -> list:
        return shlex.split(self.command.format(size=size)) + [
            "--seed", str(seed), "--output", output]


def _escape_problems(records: list, n_t: int, samples: int) -> list:
    problems = []
    if len(records) != n_t * _EPS:
        problems.append("expected %d cells, got %d" % (n_t * _EPS, len(records)))
    by_t: dict = {}
    for rec in records:
        if not 0.0 <= rec["fraction"] <= 1.0:
            problems.append("fraction %r outside [0, 1]" % rec["fraction"])
        if rec["n"] + rec["boundary_n"] != samples:
            problems.append("n + boundary_n = %d, expected %d"
                            % (rec["n"] + rec["boundary_n"], samples))
        by_t.setdefault(tuple(rec["t"]), []).append((rec["eps"], rec["fraction"]))
    for t, cells in by_t.items():
        fractions = [f for _, f in sorted(cells)]
        if any(b < a for a, b in zip(fractions, fractions[1:])):
            problems.append("fractions not monotone in eps at t=%s" % (list(t),))
    return problems


def _equidist_problems(records: list, samples: int) -> list:
    if len(records) != 1:
        return ["expected one record, got %d" % len(records)]
    disc = records[0]["discrepancy"]
    if not abs(disc) <= _MAX_DISCREPANCY:
        return ["|discrepancy| = %r exceeds %g" % (abs(disc), _MAX_DISCREPANCY)]
    return []


def _counterexample_problems(records: list, systems: int) -> list:
    problems = []
    if len(records) != _COUNTEREXAMPLE_S * systems:
        problems.append("expected %d cases, got %d"
                        % (_COUNTEREXAMPLE_S * systems, len(records)))
    # all_pass, recomputed from the per-case fields it is made of
    failing = [r for r in records
               if not (r["primitive_ok"] and r["lambda1_below_eps"]
                       and r["near_vector_q"] != 0)]
    if failing:
        problems.append("all_pass is false: %d failing cases" % len(failing))
    return problems


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="decay-veronese",
            command=('decay --map "veronese n=2" --measure "lebesgue d=1 box=0,1" '
                     '--ball-center 0.5 --ball-radius 0.75 --t 6,3,3 --t 8,4,4 '
                     '--t 10,5,5 --eps 0.05 0.1 0.2 0.4 --samples {size} --workers 2'),
            size=4000, full_size=20_000, workers=2,
            lattices=lambda n: _DECAY_T * n,
            check=lambda recs, n: _escape_problems(recs, _DECAY_T, n),
            why="q-grid kernel at t up to (10,5,5), cost like e^{nt}; one sampling pass",
        ),
        Workload(
            name="escape-cantor",
            command=('escape --map "veronese n=2" --measure "ifs ratios=1/3,1/3 trans=0,2/3" '
                     '--ball-center 0.7407407 --ball-radius 0.01 --t 6,3,3 '
                     '--eps 0.4 0.2 0.1 0.05 --samples {size} --workers 1'),
            size=10_000, full_size=20_000, workers=1,
            lattices=lambda n: _CANTOR_T * n,
            check=lambda recs, n: _escape_problems(recs, _CANTOR_T, n),
            why="same escape path, but in-ball rejection on a Cantor measure dominates",
        ),
        Workload(
            name="equidist-k2",
            command=('equidist --interval 0,1 --y0 0.3 --flow-time 9 --eps 0.5 '
                     '--samples {size} --workers 1'),
            size=200_000, full_size=300_000, workers=1,
            lattices=lambda n: 2 * n,
            check=_equidist_problems,
            why="batched k = 2 shortest-vector kernel on horocycle and Haar lattices",
        ),
        Workload(
            name="counterexample-k3",
            command='counterexample --eps 0.9 --u 0.4054651 --s 3,4,5,6,7,8 --systems {size}',
            size=200, full_size=600, workers=1,
            lattices=lambda n: _COUNTEREXAMPLE_S * n,
            check=_counterexample_problems,
            why="one lattice at a time at k = 3: LLL reduction plus exact enumeration",
        ),
    )
}


def read_report(path) -> tuple:
    """(payload digest, records) of a report.jsonl: the payload is every line
    but the timestamp line, the records are the lines after the three header
    lines."""
    lines = path.read_text().splitlines()
    payload = "\n".join(line for line in lines if not line.startswith('{"timestamp": '))
    records = [json.loads(line) for line in lines[3:]]
    return hashlib.sha256(payload.encode()).hexdigest(), records
