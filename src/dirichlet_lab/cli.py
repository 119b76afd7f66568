"""Command-line front end.

Twelve subcommands cover single queries (check, ba, constants), profile
and classification runs (trajectory, di), the sampling experiments
(escape, decay, equidist, counterexample), and the measure testers
(good-test, federer-test, nonplanar-test).

Each subcommand declares its parameters once, in an ordered table
(``_COMMANDS``) that gives the parser its flags and the config file its
keys.  Every value comes from its flag, else the --config FILE key of
the same name (``-`` becomes ``_``; ``--family`` is ``trajectory``),
else its default, and is recorded in table order.  Flag or key, its text
takes one conversion (``_Param._convert``; argparse converts nothing), so
a malformed value is a one-line ``error:``.  Numbers, scalar or list, read
``config``'s one grammar (``_num``, ``_num_list``), and a token with one
leading ``-`` is a value, so ``--t -0,1`` and ``--y0 -1/2`` are numbers.
A table holds only what its run reads: ``--seed`` belongs to the seven
subcommands that draw random numbers (escape, decay, equidist,
counterexample and the three testers), and ``--eps`` is one number except
where the run reads a grid (escape, decay, good-test).  A config key the
table lacks, or a repeated key whose flag does not repeat, is an error.
The parser gives parameters, and a -h action, to the invoked subcommand
only (build_parser(argv)); the others are only listed.  Its help and
errors are the full parser's.
Handlers validate, then compute; --dry-run stops after validation and
prints the plan.  Validation runs every input check the run makes, weight
limits, scan budgets and dimensions included, through the library's own
checks, so --dry-run exits 2 or 3 exactly when the run would; only a ball
the sampled support misses (EmptySupportError), map values that are not
finite at the sampled points (ParameterError) and a lattice reduction that
does not converge (CapacityError, exit 3) show up in the run alone.
Runs write report.jsonl / report.csv / config.resolved into --output,
else $DIRICHLET_LAB_OUTDIR/<experiment>, else ./runs/<experiment>.
Exit codes: 0 success, 2 bad arguments, 3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from dataclasses import asdict
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, NamedTuple

import numpy as np

from .config import (
    RunConfig,
    _num,
    _num_list,
    parse_config,
    parse_forms,
    parse_map,
    parse_measure,
    parse_trajectory,
    parse_weight_vector,
)
from .errors import CapacityError, ParameterError
from .experiments import (
    _counterexample_window,
    _equidist_weights,
    _escape_grid,
    equidist_test_k2,
    escape_table,
    no_drift_counterexample,
    nondiv_decay_scan,
)
from .flows import (
    _ba_weights,
    _check_lattice_reach,
    _di_tested,
    _direct_bounds,
    ba_quality,
    di_classify,
    dirichlet_solvable_direct,
    trajectory_lambda1,
)
from .lattice import DEFAULT_MARGIN
from .measures import (
    DEFAULT_IFS_DEPTH,
    Ball,
    _cgood_grid,
    _check_dims,
    _check_sample,
    _federer_radii,
    cgood_empirical,
    epsilon0_registry,
    federer_empirical,
    nonplanar_test,
)
from .reports import value_text
from .rng import _check_seed, _check_workers

_ENV_OUTDIR = "DIRICHLET_LAB_OUTDIR"


# ---------------------------------------------------------------------------
# parameter tables and the one resolver
# ---------------------------------------------------------------------------


def _parse_bool(text: str) -> bool:
    if text in ("true", "1", "yes"):
        return True
    if text in ("false", "0", "no"):
        return False
    raise ValueError(text)


class _Param(NamedTuple):
    """One subcommand parameter: config key, conversion, default, flag."""

    key: str
    conv: Callable | None = None
    default: object = None
    required: bool = False
    help: str | None = None
    kind: str = "one"  # "list": --eps a b; "append": repeat the flag; "switch": no value
    flag: str | None = None  # only where the flag name differs from the key

    @property
    def option(self) -> str:
        return "--" + (self.flag or self.key).replace("_", "-")

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.kind == "switch":
            extra = dict(action="store_const", const="true")
        else:
            extra = dict(nargs="+" if self.kind == "list" else None,
                         action="append" if self.kind == "append" else None)
        parser.add_argument(self.option, help=self.help, **extra)

    def resolve(self, flag_value, cfg: RunConfig | None):
        """Flag beats config file beats default; either gives texts for _convert.

        A flag gives one text ("true" for a switch), or a list for a list or
        append parameter; a config line gives one, split on whitespace for a
        list parameter, and counts as absent when empty.
        """
        texts = [text for text in cfg.values(self.key) if text] if cfg else []
        if flag_value is not None:
            texts = flag_value if self.kind in ("list", "append") else [flag_value]
        elif self.kind == "list":
            texts = " ".join(texts).split()
        if texts:
            values = tuple(map(self._convert, texts))
            return values if self.kind in ("list", "append") else values[0]
        if self.required:
            raise ParameterError("missing required parameter %s" % self.option)
        return self.default

    def _convert(self, text: str):
        try:
            return text if self.conv is None else self.conv(text)
        except ValueError:
            raise ParameterError("bad value for %s: %r" % (self.option, text))


class _Command(NamedTuple):
    help: str
    description: str | None
    sampling: bool  # takes --workers
    handler: Callable  # generator: validates, yields, computes, yields (records, lines)
    params: tuple


_COMMON = (_Param("output", help="run directory (default $%s/<experiment>)" % _ENV_OUTDIR),)
# the subcommands that draw random numbers only
_SEED = _Param("seed", int, 0, help="RNG seed (default 0)")
# sampling subcommands only, and never read from or written to a config file
_WORKERS = _Param("workers", int, 1, help="sampling threads; any N gives identical output")


def _read_config(path: str, experiment: str, params: tuple) -> RunConfig:
    """The config file, once every key is one the subcommand reads."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParameterError("config file %s is not UTF-8 text: %s" % (path, exc)) from None
    cfg = parse_config(text)
    if cfg.experiment != experiment:
        raise ParameterError(
            "config is for experiment %r, not %r" % (cfg.experiment, experiment))
    kinds = {param.key: param.kind for param in params}
    for key, _ in cfg.entries:
        if key not in kinds:
            raise ParameterError("unknown config key %r for %s" % (key, experiment))
        if kinds[key] != "append" and len(cfg.values(key)) > 1:
            raise ParameterError("config key %r given more than once" % key)
    return cfg


def _run(args: argparse.Namespace) -> int:
    """Resolve the subcommand's table, validate, then print the plan or run and report."""
    from .reports import write_report

    experiment = args.command
    command = _COMMANDS[experiment]
    params = command.params + _COMMON
    cfg = _read_config(args.config, experiment, params) if args.config else None
    workers = _WORKERS.resolve(getattr(args, "workers", None), None)
    values, entries = {"workers": workers}, []
    for param in params:
        value = values[param.key] = param.resolve(getattr(args, param.flag or param.key), cfg)
        if value is not None:
            items = value if param.kind == "append" else (value,)
            entries.extend((param.key, value_text(item, " ")) for item in items)
    config = RunConfig(experiment, entries)
    if "seed" in values:
        _check_seed(values["seed"])
    _check_workers(values["workers"])
    steps = command.handler(SimpleNamespace(**values))
    next(steps)  # inputs valid
    run_dir = Path(values["output"]) if values["output"] else (
        Path(os.environ.get(_ENV_OUTDIR, "runs")) / experiment)
    if args.dry_run:
        print("dry-run: plan resolved, nothing computed or written")
        print("would write: %s" % (run_dir / "report.jsonl"))
        sys.stdout.write(config.to_text())
        return 0
    records, lines = next(steps)
    for line in lines:
        print(line)
    write_report(run_dir, config, records)
    print("wrote %s" % (run_dir / "report.jsonl"))
    return 0


# ---------------------------------------------------------------------------
# subcommand handlers: validate the inputs, yield, compute, yield the result
# ---------------------------------------------------------------------------


def _cmd_check(v):
    Y = parse_forms(v.Y, v.m, v.n)
    t = parse_weight_vector(v.t, v.m, v.n)
    _direct_bounds(Y, t, v.eps, v.weak_q)
    yield
    witness = dirichlet_solvable_direct(Y, t, v.eps, weak_q=v.weak_q)
    record = {
        "experiment": "check", "m": v.m, "n": v.n, "Y": v.Y,
        "t": list(t.t), "eps": v.eps, "weak_q": v.weak_q,
        "solvable": witness is not None,
        "witness_p": list(witness.p) if witness else None,
        "witness_q": list(witness.q) if witness else None,
    }
    if witness is None:
        line = "unsolvable"
    else:
        line = "solvable p=%s q=%s" % (list(witness.p), list(witness.q))
    yield [record], [line]


def _cmd_trajectory(v):
    Y = parse_forms(v.Y, v.m, v.n)
    family = parse_trajectory(v.trajectory, v.m, v.n)
    _check_lattice_reach(family)
    yield
    series = trajectory_lambda1(Y, family)
    records = [
        {"t": list(w.t), "norm": w.norm, "floor": w.floor, "lambda1": lam}
        for w, lam in series
    ]
    lines = ["t=%s lambda1=%.6g" % (list(w.t), lam) for w, lam in series[:10]]
    if len(series) > 10:
        lines.append("... (%d points total)" % len(series))
    yield records, lines


def _cmd_di(v):
    Y = parse_forms(v.Y, v.m, v.n)
    family = parse_trajectory(v.trajectory, v.m, v.n)
    _di_tested(family, v.eps, v.horizon, v.margin)
    yield
    report = di_classify(Y, family, v.eps, v.horizon, margin=v.margin)
    lines = [
        "verdict: %s" % report.verdict.value,
        "last not-solvable norm: %s" % (report.last_not_solvable_norm,),
    ]
    yield report.to_records(), lines


def _scan_inputs(v) -> dict:
    """Keyword arguments of escape_table / nondiv_decay_scan, checked up front."""
    mapping = parse_map(v.map)
    measure = parse_measure(v.measure)
    ball = Ball(v.ball_center, v.ball_radius)
    weights = [parse_weight_vector(txt, 1, mapping.n) for txt in v.t]
    grid, _ = _escape_grid(v.eps, v.samples, weights, mapping.n, v.margin)
    _check_dims(measure, ball, mapping)
    _check_sample(measure, v.samples, v.depth)
    return dict(mapping=mapping, measure=measure, ball=ball, t_list=weights,
                eps_grid=grid, samples=v.samples,
                seed=v.seed, depth=v.depth, margin=v.margin, workers=v.workers)


def _cmd_escape(v):
    scan_args = _scan_inputs(v)
    yield
    cells = escape_table(**scan_args)
    lines = ["t=%s eps=%g fraction=%.6g ci=%.2g" % (list(c.t), c.eps, c.fraction, c.ci)
             for c in cells]
    yield [asdict(c) for c in cells], lines


def _cmd_decay(v):
    scan_args = _scan_inputs(v)
    yield
    scan = nondiv_decay_scan(**scan_args)
    # the fit must decay at least as fast as nondivergence guarantees;
    # None when either exponent is missing (no fit, or a constant map)
    passed = (None if scan.alpha is None or scan.alpha_theory is None
              else scan.alpha >= scan.alpha_theory)
    lines = [
        *("t=%s slope=%s" % (list(t), slope) for t, slope in scan.slopes.items()),
        "pooled decay: alpha=%s c2=%s (zero cells excluded: %d)"
        % (scan.alpha, scan.c2, scan.excluded_zero_cells),
        "per-eps max fraction: %s" % (list(scan.column_max),),
        "per-eps span over t:  %s" % (list(scan.column_span),),
        "nondivergence: alpha_theory=%s pass=%s" % (scan.alpha_theory, passed),
    ]
    yield [asdict(c) for c in scan.cells], lines


def _cmd_equidist(v):
    _equidist_weights(v.interval, v.y0, v.flow_time, v.eps, v.samples, v.margin)
    yield
    report = equidist_test_k2(v.interval, v.y0, v.flow_time, v.eps,
                              samples=v.samples, seed=v.seed,
                              margin=v.margin, workers=v.workers)
    lines = [
        "translate=%.6g haar=%.6g discrepancy=%+.6g"
        % (report.translate_estimate, report.haar_estimate, report.discrepancy),
    ]
    yield [{"experiment": "equidist-k2", **asdict(report)}], lines


def _cmd_counterexample(v):
    _counterexample_window(v.eps, v.u, v.s, v.systems)
    yield
    record = no_drift_counterexample(v.eps, v.u, v.s, systems=v.systems, seed=v.seed)
    lines = [
        "cases: %d  all_pass: %s  max lambda1: %.6g"
        % (len(record.cases), record.all_pass, record.max_lambda1),
    ]
    yield record.to_records(), lines


def _cmd_good_test(v):
    mapping = parse_map(v.map)
    measure = parse_measure(v.measure)
    ball = Ball(v.ball_center, v.ball_radius)
    if not 1 <= v.coord <= mapping.n:
        raise ParameterError("--coord must be in 1..%d" % mapping.n)
    _cgood_grid(v.alpha, v.eps)
    _check_dims(measure, ball, mapping)
    _check_sample(measure, v.samples, v.depth)
    yield

    def f(x):
        return mapping.evaluate(np.asarray(x, dtype=float))[:, v.coord - 1]

    est = cgood_empirical(f, measure, ball, v.alpha, v.eps, samples=v.samples,
                          seed=v.seed, depth=v.depth, workers=v.workers)
    records = [
        {"experiment": "good-test", "seed": v.seed, "coord": v.coord,
         "alpha": est.alpha, "eps": e, "fraction": fr, "half_width": hw,
         "sup_norm": est.sup_norm, "C": est.C, "degenerate": est.degenerate}
        for e, fr, hw in zip(est.eps_grid, est.fractions, est.half_widths)
    ]
    lines = ["C=%.6g alpha=%g sup=%.6g degenerate=%s"
             % (est.C, est.alpha, est.sup_norm, est.degenerate)]
    yield records, lines


def _cmd_federer_test(v):
    measure = parse_measure(v.measure)
    region = Ball(v.ball_center, v.ball_radius)
    _federer_radii(v.ball_count, v.radius_range, v.center_fraction)
    _check_dims(measure, region)
    _check_sample(measure, v.samples, v.depth)
    yield
    est = federer_empirical(measure, region, ball_count=v.ball_count,
                            samples=v.samples, seed=v.seed, depth=v.depth,
                            center_fraction=v.center_fraction,
                            radius_range=v.radius_range, workers=v.workers)
    record = {"experiment": "federer-test", "seed": v.seed, **asdict(est)}
    lines = ["max nu(3B)/nu(B) = %.6g (half-width %.2g, %d balls)"
             % (est.ratio, est.half_width, est.balls_used)]
    yield [record], lines


def _cmd_nonplanar_test(v):
    mapping = parse_map(v.map)
    measure = parse_measure(v.measure)
    ball = Ball(v.ball_center, v.ball_radius)
    _check_dims(measure, ball, mapping)
    _check_sample(measure, v.samples, v.depth, least=mapping.n + 1)
    yield
    est = nonplanar_test(mapping, measure, ball, samples=v.samples,
                         seed=v.seed, depth=v.depth, workers=v.workers)
    record = {"experiment": "nonplanar-test", "seed": v.seed, **asdict(est)}
    lines = ["nonplanar=%s sigma_min=%.3g (%d points)"
             % (est.nonplanar, est.sigma_min, est.points_used)]
    yield [record], lines


def _cmd_ba(v):
    Y = parse_forms(v.Y, v.m, v.n)
    _ba_weights(Y, v.r, v.s, v.q_max)
    yield
    value = ba_quality(Y, v.r, v.s, v.q_max)
    record = {"experiment": "ba", "m": v.m, "n": v.n, "Y": v.Y,
              "r": list(v.r), "s": list(v.s), "q_max": v.q_max, "quality": value}
    yield [record], ["ba quality = %.6g" % value]


def _cmd_constants(v):
    registry = epsilon0_registry(v.max_n)
    yield
    records = [
        {"name": name, "value": value, "source": source}
        for name, (value, source) in registry.items()
    ]
    width = max(len(r["name"]) for r in records)
    lines = ["%-*s  %-12.6g  %s" % (width, r["name"], r["value"], r["source"])
             for r in records]
    yield records, lines


# ---------------------------------------------------------------------------
# the tables: one per subcommand, in resolution (and config.resolved) order
# ---------------------------------------------------------------------------

_FORMS = (
    _Param("m", int, 1),
    _Param("n", int, 1),
    _Param("Y", required=True, help="form rows: entries ','-separated, rows ';'-separated"),
)
_FAMILY = _Param("trajectory", required=True, kind="append", flag="family",
                 help="'ray central t=..', 'ray r=.. s=.. t=..', or repeated 'explicit ..'")
_EPS = _Param("eps", _num, required=True)
_MARGIN = _Param("margin", _num, DEFAULT_MARGIN)
_DEPTH = _Param("depth", int, DEFAULT_IFS_DEPTH)
_MAP = _Param("map", required=True)
_MEASURE = _Param("measure", required=True)


def _ball_params(noun: str = "ball") -> tuple:
    return (_Param("ball_center", _num_list, required=True,
                   help="%s center, comma-separated" % noun),
            _Param("ball_radius", _num, required=True, help="%s radius" % noun))


_SCAN = (_MAP, _MEASURE) + _ball_params() + (
    _Param("t", required=True, kind="append", help="weight vector; repeatable"),
    _EPS._replace(kind="list"), _Param("samples", int, 20_000), _MARGIN, _DEPTH, _SEED,
)
_SCAN_COLUMNS = "CSV columns: experiment;seed;t;floor_t;norm_t;eps;fraction;ci;n;boundary_n"

_COMMANDS = {
    "check": _Command(
        "single system query: is (eps, t) solvable?",
        "CSV columns: experiment;m;n;Y;t;eps;weak_q;solvable;witness_p;witness_q", False,
        _cmd_check,
        _FORMS + (
            _Param("t", required=True, help="weight vector, m+n comma-separated entries"),
            _Param("weak_q", _parse_bool, False, kind="switch",
                   help="allow |q|^{s_j} <= eps e^{t_j} with equality"),
            _EPS,
        )),
    "trajectory": _Command(
        "shortest-vector profile along a weight family",
        "CSV columns: t;norm;floor;lambda1", False, _cmd_trajectory,
        _FORMS + (_FAMILY,)),
    "di": _Command(
        "eps-improvability classification up to a horizon",
        "CSV columns: t;norm;floor;solvable;witness_p;witness_q", False, _cmd_di,
        _FORMS + (
            _FAMILY,
            _Param("horizon", _num, required=True, help="largest weight norm examined"),
            _MARGIN, _EPS,
        )),
    "escape": _Command("escape-measure table over (t, eps)", _SCAN_COLUMNS, True,
                       _cmd_escape, _SCAN),
    "decay": _Command("escape decay law: fractions, per-t slopes, pooled fit",
                      _SCAN_COLUMNS, True, _cmd_decay, _SCAN),
    "equidist": _Command(
        "flowed-translate vs invariant measure at k=2",
        "CSV columns: experiment;y0;interval;t;eps;translate_estimate;"
        "haar_estimate;discrepancy;translate_n;translate_boundary_n", True, _cmd_equidist,
        (
            _Param("interval", _num_list, required=True, help="lo,hi"),
            _Param("y0", _num, 0.0),
            _Param("flow_time", _num, required=True),
            _EPS, _Param("samples", int, 100_000), _MARGIN, _SEED,
        )),
    "counterexample": _Command(
        "frozen-coordinate construction, m=2 n=1",
        "CSV columns: experiment;eps;u;system_index;s;primitive_ok;"
        "lambda1;lambda1_below_eps;near_vector_distance;near_vector_q", False,
        _cmd_counterexample,
        (
            _EPS,
            _Param("u", _num, required=True,
                   help="frozen first weight; needs 1/eps^2 < e^u < 2*eps"),
            _Param("s", _num_list, required=True,
                   help="comma-separated list of drifting parameters"),
            _Param("systems", int, 100), _SEED,
        )),
    "good-test": _Command(
        "(C, alpha)-good estimate for one map coordinate",
        "CSV columns: experiment;seed;coord;alpha;eps;fraction;"
        "half_width;sup_norm;C;degenerate", True, _cmd_good_test,
        (_MAP, _MEASURE) + _ball_params() + (
            _Param("coord", int, 1, help="1-based map coordinate (default 1)"),
            _Param("alpha", _num, required=True),
            _EPS._replace(kind="list", help="sublevel grid"),
            _Param("samples", int, 100_000), _DEPTH, _SEED,
        )),
    "federer-test": _Command(
        "empirical doubling ratio nu(3B)/nu(B)",
        "CSV columns: experiment;seed;ratio;half_width;balls_used;"
        "worst_center;worst_radius", True, _cmd_federer_test,
        (_MEASURE,) + _ball_params("region") + (
            _Param("ball_count", int, 200),
            _Param("samples", int, 200_000), _DEPTH,
            _Param("center_fraction", _num, 0.2),
            _Param("radius_range", _num_list, (0.8, 1.0), help="lo,hi inside (0, 1]"),
            _SEED,
        )),
    "nonplanar-test": _Command(
        "affine-independence rank test for (1, f)",
        "CSV columns: experiment;seed;nonplanar;sigma_min;points_used", True,
        _cmd_nonplanar_test,
        (_MAP, _MEASURE) + _ball_params() + (_Param("samples", int, 20_000), _DEPTH, _SEED)),
    "ba": _Command(
        "badly-approximable quality inf over a q box",
        "CSV columns: experiment;m;n;Y;r;s;q_max;quality", False, _cmd_ba,
        _FORMS + (
            _Param("r", _num_list, required=True, help="comma-separated form weights"),
            _Param("s", _num_list, required=True, help="comma-separated variable weights"),
            _Param("q_max", int, required=True),
        )),
    "constants": _Command(
        "named small-eps thresholds with sources", "CSV columns: name;value;source",
        False, _cmd_constants, (_Param("max_n", int, 4),)),
}


def build_parser(argv=None) -> argparse.ArgumentParser:
    """The dirichlet-lab parser, for ``argv`` (the arguments after the
    program name) when given.

    Every subcommand is listed with its help, but where argv[0] names one,
    only that subcommand gets its parameters and its -h action:
    parse_args(argv) reads no other, and its help and errors are the full
    parser's.  Without such an argv (--help, a mistyped name, or no argv),
    every subcommand gets them.
    """
    parser = argparse.ArgumentParser(
        prog="dirichlet-lab",
        description="Improvable Dirichlet systems: solvers, flows, and experiments.",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    chosen = argv[0] if argv and argv[0] in _COMMANDS else None
    for name, command in _COMMANDS.items():
        listed = chosen not in (None, name)
        sub = subs.add_parser(name, help=command.help, description=command.description,
                              add_help=not listed)
        if listed:
            continue
        # no option but -h starts with a single '-', so a token that does
        # (-1/2, -0,1, -.5, -inf) is a value, not an unknown option
        sub._negative_number_matcher = re.compile(r"^-[^-]")
        for param in command.params:
            param.add_to(sub)
        sub.add_argument("--config", help="config file supplying defaults")
        for param in _COMMON:
            param.add_to(sub)
        sub.add_argument("--dry-run", action="store_true",
                         help="validate and print the resolved plan; compute nothing")
        if command.sampling:
            _WORKERS.add_to(sub)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    parser = build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return _run(args)
    except CapacityError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 3
    except (ParameterError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
